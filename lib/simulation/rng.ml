(* Splitmix64: tiny, fast, and statistically solid for simulation use.
   Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = next_int64 t in
  { state = seed }

let nonneg_int t =
  (* 62 usable bits, always non-negative. *)
  Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t ~bound =
  assert (bound > 0);
  nonneg_int t mod bound

let int_in_range t ~lo ~hi =
  assert (lo <= hi);
  lo + int t ~bound:(hi - lo + 1)

let unit_float t =
  (* 53 random bits into [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits *. (1.0 /. 9007199254740992.0)

let float t ~bound = unit_float t *. bound

let float_in_range t ~lo ~hi = lo +. (unit_float t *. (hi -. lo))

let exponential t ~mean =
  let u = unit_float t in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
