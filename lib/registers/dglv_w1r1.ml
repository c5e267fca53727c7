(** DGLV10: the single-writer *fast* register (Dutta, Guerraoui, Levy &
    Vukolić, "Fast access to distributed atomic memory").

    Both operations are one round-trip: the single writer numbers its own
    writes locally and updates all servers in one round; readers use the
    admissible-predicate fast read.  Atomic exactly when [W = 1] and
    [R < S/t − 2] — the W1R1 design point on the single-writer side of
    the boundary that this paper's Table 1 closes for [W ≥ 2]. *)

let name = "DGLV10 SW-fast"

let design_point = Quorums.Bounds.W1R1

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
      (fun ctx ~reader ->
        let val_queue = ref [ Wire.initial_value_entry ] in
        fun ~k -> Client_core.fast_read ctx ~reader ~val_queue ~k);
  }
