(** ABD'95: the single-writer register (Attiya, Bar-Noy & Dolev).

    The lone writer numbers its own writes, so a write is *fast* — one
    update round — while reads take two rounds (query + write-back).
    This is the W1R2 design point at [W = 1]: it exists, and it marks the
    exact boundary of Theorem 1, which kills W1R2 as soon as [W ≥ 2].
    The cluster refuses multi-writer environments. *)

let name = "ABD'95 SWMR"

let design_point = Quorums.Bounds.W1R2

let algo =
  {
    Client_core.new_writer =
      (fun ctx ~writer ->
        assert (writer = 0);
        let clock = ref Tstamp.initial in
        fun ~payload ~k ->
          Client_core.one_round_write ctx ~writer ~wid:0 ~payload ~clock
            ~learn:false ~k);
    new_reader =
      (fun ctx ~reader -> fun ~k -> Client_core.two_round_read ctx ~reader ~k);
  }
