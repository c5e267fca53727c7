(** The doubly-naive candidate: fast write *and* fast read (W1R1).

    Writers behave like {!Naive_w1r2}; readers do one query round and
    return the maximum value seen, with no write-back and no
    admissibility certificate.  DGLV10 proved this design point empty for
    [W ≥ 2, R ≥ 2, t ≥ 1]; here even the single-writer regime breaks for
    [R ≥ S/t − 2]-style schedules because nothing prevents new/old
    inversions between readers that observe disjoint quorums. *)

let name = "naive fast-write/fast-read"

let design_point = Quorums.Bounds.W1R1

let algo =
  {
    Client_core.new_writer =
      (fun ctx ~writer ->
        let clock = ref Tstamp.initial in
        fun ~payload ~k ->
          Client_core.one_round_write ctx ~writer ~wid:writer ~payload ~clock
            ~learn:true ~k);
    new_reader =
      (fun ctx ~reader -> fun ~k -> Client_core.one_round_read_max ctx ~reader ~k);
  }
