open Histories

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let empty =
  { count = 0; mean = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p95 = 0.0; p99 = 0.0 }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) idx))
  end

let of_latencies lats =
  match lats with
  | [] -> empty
  | _ ->
    let sorted = Array.of_list lats in
    Array.sort compare sorted;
    let n = Array.length sorted in
    let sum = Array.fold_left ( +. ) 0.0 sorted in
    {
      count = n;
      mean = sum /. float_of_int n;
      min = sorted.(0);
      max = sorted.(n - 1);
      p50 = percentile sorted 0.50;
      p95 = percentile sorted 0.95;
      p99 = percentile sorted 0.99;
    }

let latencies_of ~keep h =
  List.filter_map
    (fun (o : Op.t) ->
      match o.Op.resp with
      | Some f when keep o -> Some (f -. o.Op.inv)
      | _ -> None)
    (History.ops h)

let read_latencies h = latencies_of ~keep:Op.is_read h

let write_latencies h = latencies_of ~keep:Op.is_write h

let reads h = of_latencies (read_latencies h)

let writes h = of_latencies (write_latencies h)

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f" s.count
    s.mean s.p50 s.p95 s.p99 s.max

module Hist = struct
  (* Log-scaled fixed bins: [per_decade] bins per decade over
     [lo, lo * 10^decades), plus an underflow and an overflow bin.
     Memory is a constant ~5KB however many samples stream through;
     count / sum / min / max are exact, and a percentile read off a
     bin's geometric midpoint is within a half bin-width of the true
     order statistic — 10^(1/128) - 1 < 1.9% relative error. *)
  let lo = 1e-7 (* 0.1us — far below any real socket round trip *)
  let per_decade = 64
  let decades = 10 (* up to 1000s *)
  let nbins = per_decade * decades
  let scale = float_of_int per_decade /. log 10.

  type t = {
    bins : int array; (* 0 = underflow; 1..nbins; nbins+1 = overflow *)
    mutable n : int;
    mutable sum : float;
    mutable mn : float;
    mutable mx : float;
  }

  let create () =
    {
      bins = Array.make (nbins + 2) 0;
      n = 0;
      sum = 0.0;
      mn = infinity;
      mx = neg_infinity;
    }

  let index x =
    if x < lo then 0
    else
      let i = 1 + int_of_float (scale *. log (x /. lo)) in
      if i > nbins + 1 then nbins + 1 else i

  let add t x =
    let i = index x in
    t.bins.(i) <- t.bins.(i) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    if x < t.mn then t.mn <- x;
    if x > t.mx then t.mx <- x

  let merge ~into src =
    Array.iteri (fun i c -> into.bins.(i) <- into.bins.(i) + c) src.bins;
    into.n <- into.n + src.n;
    into.sum <- into.sum +. src.sum;
    if src.mn < into.mn then into.mn <- src.mn;
    if src.mx > into.mx then into.mx <- src.mx

  (* The geometric midpoint of bin [i], clamped into the exact
     [mn, mx] envelope so degenerate histograms (one sample, all
     samples under [lo], ...) stay exact. *)
  let midpoint t i =
    let v =
      if i = 0 then lo
      else if i = nbins + 1 then t.mx
      else lo *. exp ((float_of_int (i - 1) +. 0.5) /. scale)
    in
    Float.min t.mx (Float.max t.mn v)

  let value_at_rank t rank =
    let acc = ref 0 and res = ref t.mx in
    (try
       for i = 0 to nbins + 1 do
         acc := !acc + t.bins.(i);
         if !acc >= rank then begin
           res := midpoint t i;
           raise Exit
         end
       done
     with Exit -> ());
    !res

  (* Same rank convention as {!percentile}: 1-based ceil(p * n). *)
  let pct t p =
    value_at_rank t
      (Stdlib.max 1
         (Stdlib.min t.n (int_of_float (ceil (p *. float_of_int t.n)))))

  let summary t =
    if t.n = 0 then empty
    else
      {
        count = t.n;
        mean = t.sum /. float_of_int t.n;
        min = t.mn;
        max = t.mx;
        p50 = pct t 0.50;
        p95 = pct t 0.95;
        p99 = pct t 0.99;
      }
end
