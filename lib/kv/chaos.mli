(** Canned chaos scenarios over the live transport, shared by the
    [bench chaos] soak, the [mwreg chaos] subcommand and the test
    suite.

    Two shapes:

    - {!soak}: a randomized-but-seeded fault schedule (drop / delay /
      duplicate on every link, plus a mid-run crash and
      restart-with-recovery) under a split-role {!Kv_session} run on
      one register, verdict
      from {!Checker.Atomicity}.  In the paper's possible regimes the
      protocols must ride this out — lossy links only cost retries.
    - {!restart_scenario}: a deterministic script proving both halves
      of the crash-stop argument executable: a killed server restarted
      {e with} its recovered state preserves atomicity, while the same
      restart with {e fresh} state loses an acknowledged write and
      yields a checker witness. *)

val plan :
  ?seed:int -> ?drop:float -> ?delay:float -> ?duplicate:float -> unit ->
  Transport.Faults.t
(** The standard soak plan, all links and both directions: each frame
    independently dropped with probability [drop] (default 0.08),
    delayed up to [delay] seconds with probability 0.25 (default max
    0.03s), duplicated with probability [duplicate] (default 0.1).
    Pass 0 to disable any of the three. *)

type soak = {
  register : Protocol.Register_intf.t;
  seed : int;
  drop : float;
  delay : float;
  duplicate : float;
  restarted : bool;  (** Whether the kill → recover-restart event ran. *)
  result : Kv_session.result;
  atomic : bool;
  expected_atomic : bool;
      (** {!Quorums.Bounds.possible} at the soak's (s,t,w,r): where the
          theory says "possible", chaos must not break atomicity. *)
}

val soak :
  ?seed:int ->
  ?drop:float ->
  ?delay:float ->
  ?duplicate:float ->
  ?s:int ->
  ?tol:int ->
  ?ops:int ->
  ?restart:bool ->
  ?server_shards:int ->
  ?live_check:bool ->
  ?on_violation:(string -> Checker.Witness.t -> unit) ->
  register:Protocol.Register_intf.t ->
  unit ->
  soak
(** Run one seeded soak: [s] servers (default 5) tolerating [tol]
    (default 1), 2 writers × 2 readers (1 writer for single-writer
    protocols), [ops] writes per writer and [2·ops] reads per reader
    (default 8), under {!plan}.  With [restart] (default true) server
    [s-1] is killed 0.05s in and restarted with recovered state at
    0.45s — so the soak also exercises {!Transport.Cluster.restart}
    under load.
    [server_shards] (default 1) runs every server with that many
    reactor event loops ({!Kv_cluster.start}), putting the fault timers
    and the restart path under a sharded reactor too.  [live_check]
    and [on_violation] forward to {!Kv_session.run} — the streaming
    checker then rides the whole storm, report in
    [result.Kv_session.online]. *)

type restart_outcome = {
  mode : Transport.Cluster.restart_mode;
  atomic : bool;
  witness : string option;
      (** The checker's counterexample, when atomicity broke. *)
  read_value : int option;  (** What the post-restart read returned. *)
  history : Histories.History.t;
}

val restart_scenario :
  ?server_shards:int ->
  mode:Transport.Cluster.restart_mode ->
  unit ->
  restart_outcome
(** The deterministic crash-stop script, on a 3-server cluster
    ([tol = 1], quorum 2) running LS97 (W2R2):

    + one-way cuts confine the write: the writer cannot reach server 2,
      the reader cannot reach server 1;
    + the writer completes a write — it lands exactly on quorum
      [{0, 1}];
    + server 0 is killed and restarted in [mode];
    + the reader reads; its quorum is [{0, 2}].

    With [`Recover], server 0 rejoins carrying the write: the read
    returns it and the history checks atomic.  With [`Fresh], no server
    in the reader's quorum knows the acknowledged write: the read
    returns the initial value and {!Checker.Atomicity} produces a
    witness — the executable proof that crash-stop recovery must carry
    state. *)
