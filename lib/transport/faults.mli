(** Deterministic, seeded fault plans for the live transport.

    The paper's model is crash-prone asynchrony: links may delay,
    reorder, duplicate or lose messages, and up to [t] of [S] servers
    may crash.  {!Cluster.kill} exercises only the crash half.  A fault
    plan makes the link half executable: a set of {e rules} describing
    which frames to drop, delay or duplicate on which client↔server
    links during which time windows, plus absolute connectivity faults
    (one-way link cuts and partitions).

    {2 Injection points}

    A plan is a cluster's link plan ({!Cluster.start}), and the client
    plane ({!Mux}) realises both of its legs, at the frame level;
    servers realise nothing:

    - the [To_server] direction before sending a request frame to each
      server;
    - the [From_server] direction as each reply frame is read.

    A delayed frame of either leg waits in the mux's one deadline heap
    and is sent or routed when it falls due — or silently dropped if
    its link severed first, which is also a legal behaviour of the
    link being modelled.  The process's event loop sleeps to the
    nearest deadline of every mux's heap (there are no delayer
    threads).

    So a rule with [dir = Some To_server] faults the request leg only,
    [Some From_server] the reply leg only, and [None] both — the
    one-way cuts of the asynchronous model.

    {2 Determinism}

    Every per-frame decision is a pure hash of
    [(seed, rule, direction, server, client, rt, salt)] — no hidden
    PRNG state, no ordering sensitivity.  The [salt] is the retry
    attempt on the request leg and, on the reply leg, the reply's
    arrival index for its [(client, rt, server)] — so the draws do not
    depend on how clients interleave on a shared connection, and a
    frame dropped on one attempt gets a fresh draw on the next:
    lossy links starve nothing as long as the retry budget holds, which
    is exactly the regime the quorum round-trip contract is built for.
    Time windows measure seconds since the plan was {!arm}ed, on the
    monotonic {!Clock}. *)

type dir =
  | To_server  (** request frames, client → server *)
  | From_server  (** reply frames, server → client *)

type kind =
  | Drop  (** lose the frame *)
  | Duplicate  (** deliver the frame twice *)
  | Latency of { base : float; jitter : float }
      (** deliver late: every matching frame takes [base] seconds plus
          a uniform jitter in [\[0, jitter)] — the distribution
          {!Simulation.Latency} geo models draw from.  {!Geo} compiles
          its region-pair matrices into rule sets of this kind, one per
          (client region, server region, direction); a random delay up
          to [d] is [{ base = d /. 4.; jitter = 0.75 *. d }].  When a
          frame is also duplicated, each copy draws its own jitter.
          [base], [jitter] must be [>= 0] and not both zero. *)

type rule

val rule :
  ?dir:dir ->
  ?servers:int list ->
  ?clients:int list ->
  ?from_:float ->
  ?until:float ->
  ?prob:float ->
  kind ->
  rule
(** A probabilistic frame rule.  [servers]/[clients] restrict the links
    it applies to ([[]], the default, means all; clients are named by
    their {!Protocol.Topology} node ids, and a negative id is
    [Invalid_argument]).  [from_]/[until] bound the
    active window in seconds since {!arm} (defaults: always active).
    [prob] (default [1.0]) is the per-frame firing probability. *)

val cut :
  ?dir:dir ->
  ?servers:int list ->
  ?clients:int list ->
  unit ->
  rule
(** An absolute link cut: [rule ~prob:1.0 Drop].  With [dir] this is a
    one-way cut — e.g. [cut ~dir:To_server ~clients:[c] ~servers:[i] ()]
    loses every request [c] sends to server [i] while replies (of
    earlier requests) still flow. *)

val partition : ?from_:float -> ?until:float -> int list list -> rule
(** Frames between nodes in different groups are lost, both directions.
    Nodes are {!Protocol.Topology} ids (servers [0..S-1], then the
    clients: client [i] of a [Kv.Router] is node [S + i]); nodes absent
    from every group are unaffected.  A negative id is
    [Invalid_argument]. *)

type t
(** A fault plan: a seed plus a rule list.  Immutable but for the arm
    clock; safe to share across every thread of a cluster. *)

val create : ?seed:int -> rule list -> t

val arm : t -> unit
(** (Re)start the plan clock: rule windows are measured from here.
    [Kv.Kv_session.run] arms its plan at run start; plans used outside
    a run arm themselves at first consultation. *)

val deliveries :
  t -> dir:dir -> server:int -> client:int -> rt:int -> salt:int -> float list
(** The fate of one frame: the delay, in seconds from now, of each copy
    to deliver ([0.0] = immediately).  [[]] means dropped, one element
    is normal or delayed delivery, two elements a duplicate.  Pure in
    everything but the window clock, which a plan with no windowed rule
    never reads.  Each rule's server and client sets are resolved to
    per-node lookups when the rule is made, so a call walks the rule
    list once with no list membership search. *)
