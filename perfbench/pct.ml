(* Exact-sample order statistics over per-op latencies.

   Every percentile the benchmark prints is read off the sorted samples
   themselves (nearest rank), never off a binned histogram: the
   repository's [Stats.Hist] bins are ~3.6% wide, which on the [lan]
   profile collapses every p50 onto the same bin edge. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [q]% of
   the samples at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.percentile: no samples";
  if not (q >= 0.0 && q <= 100.0) then
    invalid_arg "Pct.percentile: q must lie in [0, 100]";
  let rank = int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let median sorted = percentile sorted 50.0

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 samples /. float_of_int n

let min_beyond = 10

type tail = { pct : float; value : float; beyond : int; n : int }

(* The tail rule: the highest percentile that still has [min_beyond]
   samples above it.  With [n] samples that is the sample of rank
   [n - min_beyond], i.e. percentile [100 (n - min_beyond) / n]; below
   [min_beyond + 1] samples no percentile qualifies. *)
let tail sorted =
  let n = Array.length sorted in
  if n <= min_beyond then None
  else
    let k = n - min_beyond in
    Some
      {
        pct = 100.0 *. float_of_int k /. float_of_int n;
        value = sorted.(k - 1);
        beyond = n - k;
        n;
      }

