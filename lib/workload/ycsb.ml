open Simulation

(* YCSB-shaped workload generation: which key an operation touches and
   whether it reads or writes.  Key choice follows either a uniform draw
   or the YCSB zipfian generator (Gray et al.'s rejection-free inverse
   method with the [eta] correction): rank 0 is the hottest key, so the
   skewed head of the distribution is deterministic and testable.  All
   randomness flows through the caller's {!Rng.t} — same seed, same
   key/op sequence. *)

type dist = Uniform | Zipfian of float

type mix = A | B | C

let default_theta = 0.99

let read_fraction = function A -> 0.5 | B -> 0.95 | C -> 1.0

let mix_name = function A -> "A" | B -> "B" | C -> "C"

let mix_of_string s =
  match String.uppercase_ascii s with
  | "A" -> Some A
  | "B" -> Some B
  | "C" -> Some C
  | _ -> None

let dist_name = function Uniform -> "uniform" | Zipfian _ -> "zipfian"

type t = {
  keys : int;
  dist : dist;
  (* Zipfian precompute; zero for uniform. *)
  theta : float;
  zetan : float;
  alpha : float;
  eta : float;
}

let zeta n theta =
  let s = ref 0.0 in
  for i = 1 to n do
    s := !s +. (1.0 /. (float_of_int i ** theta))
  done;
  !s

let create ~dist ~keys =
  if keys < 1 then invalid_arg "Ycsb.create: keys must be >= 1";
  match dist with
  | Uniform -> { keys; dist; theta = 0.0; zetan = 0.0; alpha = 0.0; eta = 0.0 }
  | Zipfian theta ->
    if theta <= 0.0 || theta >= 1.0 then
      invalid_arg "Ycsb.create: zipfian theta must be in (0, 1)";
    if keys = 1 then
      { keys; dist; theta; zetan = 1.0; alpha = 0.0; eta = 0.0 }
    else begin
      let zetan = zeta keys theta in
      let alpha = 1.0 /. (1.0 -. theta) in
      let eta =
        (1.0 -. ((2.0 /. float_of_int keys) ** (1.0 -. theta)))
        /. (1.0 -. (zeta 2 theta /. zetan))
      in
      { keys; dist; theta; zetan; alpha; eta }
    end

let next_key t rng =
  match t.dist with
  | Uniform -> Rng.int rng ~bound:t.keys
  | Zipfian _ ->
    if t.keys = 1 then 0
    else begin
      let u = Rng.float rng ~bound:1.0 in
      let uz = u *. t.zetan in
      if uz < 1.0 then 0
      else if uz < 1.0 +. (0.5 ** t.theta) then 1
      else begin
        let rank =
          int_of_float
            (float_of_int t.keys
            *. (((t.eta *. u) -. t.eta +. 1.0) ** t.alpha))
        in
        (* Floating-point edges can land exactly on [keys]; clamp. *)
        min (t.keys - 1) (max 0 rank)
      end
    end

let next_op mix rng =
  if Rng.float rng ~bound:1.0 < read_fraction mix then `Read else `Write

(* YCSB-style record names; fixed width keeps them sortable and the
   placement hash input uncorrelated with rank. *)
let key_name i = Printf.sprintf "user%08d" i
