(** The doomed candidate: a best-effort multi-writer *fast write* (W1R2).

    Writers pick timestamps from purely local knowledge — a local clock
    folded with every timestamp the servers have ever ACKed back to them
    — and update all servers in a single round.  Reads are the full slow
    two-round read with write-back, so all the blame for any violation
    falls on the fast write.

    Theorem 1 says no choice of local strategy can make this atomic with
    [W ≥ 2, R ≥ 2, t ≥ 1]; the learning writer is deliberately the
    strongest cheap attempt, and the checker still finds stale reads:
    two non-concurrent writes by different writers can obtain inverted
    timestamps because the later writer hasn't yet *heard* about the
    earlier write (it never queries before writing — that query is
    precisely the second round Theorem 1 proves necessary). *)

let name = "naive fast-write"

let design_point = Quorums.Bounds.W1R2

let algo =
  {
    Client_core.new_writer =
      (fun ctx ~writer ->
        let clock = ref Tstamp.initial in
        fun ~payload ~k ->
          Client_core.one_round_write ctx ~writer ~wid:writer ~payload ~clock
            ~learn:true ~k);
    new_reader =
      (fun ctx ~reader -> fun ~k -> Client_core.two_round_read ctx ~reader ~k);
  }
