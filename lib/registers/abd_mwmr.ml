(** LS97: the multi-writer W2R2 baseline (Lynch & Shvartsman 1997).

    Two-round writes (query [maxTS], then update [(maxTS+1, wᵢ)]) and
    two-round reads (query, then write back the maximum before
    returning).  Atomic whenever [t < S/2] — the top of the Fig. 2
    lattice and the "slow but safe" reference every fast variant is
    measured against. *)

let name = "LS97 ABD-MW"

let design_point = Quorums.Bounds.W2R2

let algo =
  {
    Client_core.new_writer =
      (fun ctx ~writer ->
        let last_written = ref Wire.initial_value_entry in
        fun ~payload ~k ->
          Client_core.two_round_write ctx ~writer ~payload ~last_written ~k);
    new_reader =
      (fun ctx ~reader -> fun ~k -> Client_core.two_round_read ctx ~reader ~k);
  }
