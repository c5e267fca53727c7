(** The paper's W2R1 implementation (Algorithm 1 & 2, §5.2, Appendix A).

    Writes take two rounds: the writer queries all servers for the
    maximum timestamp (propagating its own last value — the [(read,
    maxTS)] message) and then updates [(maxTS + 1, wᵢ)] everywhere, so
    non-concurrent writes from different writers are ordered by timestamp
    and concurrent ones by writer id (MWA0).

    Reads are *fast*: a single round.  The reader sends its [valQueue]
    (servers fold it in before replying — that propagation is what lets
    later readers certify values), collects [S − t] READACKs, and returns
    the largest value [admissible] with some degree [a ∈ [1, R+1]].

    Atomic exactly when [R < S/t − 2]; beyond that threshold the
    admissible predicate degenerates (see `fig9`). *)

let name = "Huang et al. W2R1"

let design_point = Quorums.Bounds.W2R1

let new_writer ctx ~writer =
  let last_written = ref Wire.initial_value_entry in
  fun ~payload ~k ->
    Client_core.two_round_write ctx ~writer ~payload ~last_written ~k

let new_reader ?probe ctx ~reader =
  let val_queue = ref [ Wire.initial_value_entry ] in
  fun ~k -> Client_core.fast_read ?probe ctx ~reader ~val_queue ~k

let algo =
  {
    Client_core.new_writer;
    new_reader = (fun ctx ~reader -> new_reader ctx ~reader);
  }
