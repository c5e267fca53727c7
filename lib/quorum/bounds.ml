type design_point = W2R2 | W1R2 | W2R1 | W1R1

let design_point_to_string = function
  | W2R2 -> "W2R2"
  | W1R2 -> "W1R2"
  | W2R1 -> "W2R1"
  | W1R1 -> "W1R1"

let all_design_points = [ W2R2; W1R2; W2R1; W1R1 ]

let write_rounds = function W2R2 | W2R1 -> 2 | W1R2 | W1R1 -> 1

let read_rounds = function W2R2 | W1R2 -> 2 | W2R1 | W1R1 -> 1

let check_st ~s ~t =
  if s < 2 then invalid_arg "Bounds: need at least 2 servers";
  if t < 0 || t >= s then invalid_arg "Bounds: need 0 <= t < s"

let w2r2_possible ~s ~t =
  check_st ~s ~t;
  2 * t < s

(* R < S/t − 2 over the reals, i.e. t·(R + 2) < S. *)
let fast_read_cond ~s ~t ~r = t * (r + 2) < s

let fast_read_threshold ~s ~t =
  check_st ~s ~t;
  if t = 0 then max_int else ((s - 1) / t) - 2

let w1r2_possible ~s ~t ~w ~r =
  check_st ~s ~t;
  ignore r;
  if t = 0 then true (* no crashes: one round to all servers suffices *)
  else if w <= 1 then w2r2_possible ~s ~t (* ABD'95 single-writer fast write *)
  else false (* Theorem 1: W ≥ 2, R ≥ 2 (implied), t ≥ 1 *)

let w2r1_possible ~s ~t ~r =
  check_st ~s ~t;
  if t = 0 then true else w2r2_possible ~s ~t && fast_read_cond ~s ~t ~r

let w1r1_possible ~s ~t ~w ~r =
  check_st ~s ~t;
  if t = 0 then true
  else if w <= 1 then w2r2_possible ~s ~t && fast_read_cond ~s ~t ~r
  else false (* DGLV10 multi-writer fast read-write impossibility *)

let possible point ~s ~t ~w ~r =
  match point with
  | W2R2 -> w2r2_possible ~s ~t
  | W1R2 -> w1r2_possible ~s ~t ~w ~r
  | W2R1 -> w2r1_possible ~s ~t ~r
  | W1R1 -> w1r1_possible ~s ~t ~w ~r

let latency_rank p = write_rounds p + read_rounds p
