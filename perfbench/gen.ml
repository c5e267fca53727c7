(* The benchmark's inputs, generated from the workload seed alone: the
   program under test only ever sees the key, op and arrival streams
   built here. *)

open Simulation
open Workload

type kind = [ `Read | `Write ]

(* Client [i]'s private generator.  splitmix64 decorrelates adjacent
   seeds, so [seed, client] pairs map to independent streams. *)
let client_rng ~seed ~client = Rng.create ~seed:((seed * 1_000_003) + client)

(* A closed-loop client's endless (rank, kind) stream. *)
type stream = { rng : Rng.t; ycsb : Ycsb.t; mix : Ycsb.mix }

let stream ~seed ~client ycsb mix =
  { rng = client_rng ~seed ~client; ycsb; mix }

let next st =
  let rank = Ycsb.next_key st.ycsb st.rng in
  (rank, Ycsb.next_op st.mix st.rng)

type arrival = { due : float; rank : int; kind : kind }

(* Open-loop arrivals: a Poisson process of [rate] ops/s over
   [0, seconds), each arrival carrying its key and op kind.  [due] is an
   offset from the start of the timed phase. *)
let schedule ~seed ~rate ~seconds ycsb mix =
  if not (rate > 0.0) then invalid_arg "Gen.schedule: rate must be > 0";
  let rng = client_rng ~seed ~client:(-1) in
  let rec go t acc =
    let t = t +. Rng.exponential rng ~mean:(1.0 /. rate) in
    if t >= seconds then Array.of_list (List.rev acc)
    else
      let rank = Ycsb.next_key ycsb rng in
      let kind = Ycsb.next_op mix rng in
      go t ({ due = t; rank; kind } :: acc)
  in
  go 0.0 []

(* Arrivals due at or before offset [t]: the count a generator that
   keeps up has started by then. *)
let due_by arrivals t =
  let lo = ref 0 and hi = ref (Array.length arrivals) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arrivals.(mid).due <= t then lo := mid + 1 else hi := mid
  done;
  !lo

(* Did the open-loop generator keep up?  [samples] are (offset, backlog)
   pairs taken whenever a worker picked up an arrival.  A stable queue
   has the same mean backlog in both halves of the timed phase; one
   that falls behind grows by (offered - served) x elapsed, so its
   second half trails the first by far more than one op. *)
let kept_up ~seconds samples =
  let half = seconds /. 2.0 in
  let sum_a = ref 0 and n_a = ref 0 and sum_b = ref 0 and n_b = ref 0 in
  List.iter
    (fun (t, backlog) ->
      if t < half then (sum_a := !sum_a + backlog; incr n_a)
      else (sum_b := !sum_b + backlog; incr n_b))
    samples;
  let mean s n = if n = 0 then 0.0 else float_of_int s /. float_of_int n in
  mean !sum_b !n_b <= mean !sum_a !n_a +. 1.0
