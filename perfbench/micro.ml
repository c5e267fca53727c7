(* Per-layer costs the live run cannot isolate, measured off the hot
   path on inputs taken from the run itself: a standalone {!Keyspace}
   fed the workload's key stream, and the {!Codec} fed frames captured
   by the tracer. *)

open Registers
open Transport

type keyspace_costs = {
  hit_us : float array;  (** handles that found the replica resident *)
  miss_us : float array;  (** handles that created or rehydrated it *)
  demote_ms : float array;  (** handles that also ran a demotion pass *)
}

(* One server's view of the stream: each op is its first-round Query
   and, for two-round ops, a second-round Update.  Hit, miss and
   demotion are told apart by how the resident count moved: a miss
   materialises a replica (+1), a demotion pass snapshots a quarter of
   the hot set (drop).  Only the [timed] part is sampled for hits and
   misses; demotion passes are sampled over the warm-up too, since
   they are rare. *)
let keyspace ~warm ~timed ~rounds =
  let ks = Keyspace.create () in
  let tag = ref Tstamp.initial in
  let hits = ref [] and misses = ref [] and demotes = ref [] in
  let handle ~sample key req =
    let hot0 = Keyspace.hot_count ks in
    let t0 = Clock.now () in
    ignore (Keyspace.handle ks ~key ~client:0 req);
    let dt = Clock.now () -. t0 in
    let hot1 = Keyspace.hot_count ks in
    if hot1 < hot0 then demotes := (1e3 *. dt) :: !demotes
    else if sample then
      if hot1 > hot0 then misses := (1e6 *. dt) :: !misses
      else hits := (1e6 *. dt) :: !hits
  in
  let feed ~sample (key, kind) =
    handle ~sample key (Wire.Query []);
    if rounds kind > 1 then begin
      tag := Tstamp.next !tag ~wid:0;
      handle ~sample key (Wire.Update { Wire.tag = !tag; payload = !tag.ts })
    end
  in
  List.iter (feed ~sample:false) warm;
  List.iter (feed ~sample:true) timed;
  {
    hit_us = Array.of_list !hits;
    miss_us = Array.of_list !misses;
    demote_ms = Array.of_list !demotes;
  }

(* Seconds spent timing each codec direction. *)
let budget = 0.2

(* Run [f] over [batch] in rounds until [budget] seconds have passed;
   return seconds per item. *)
let per_item batch f =
  let n = ref 0 in
  let t0 = Clock.now () in
  while Clock.now () -. t0 < budget do
    List.iter f batch;
    n := !n + List.length batch
  done;
  (Clock.now () -. t0) /. float_of_int (max 1 !n)

let frames_of captured =
  List.concat_map
    (fun (key, req, reps) ->
      Codec.Keyed_request { key; rt = 1; client = 0; req }
      :: List.map
           (fun (server, rep) ->
             Codec.Keyed_reply { key; rt = 1; client = 0; server; rep })
           reps)
    captured

(* Microseconds per frame for [Codec.encode_into] and for reassembly
   through [Codec.Stream]. *)
let codec captured =
  match frames_of captured with
  | [] -> (0.0, 0.0)
  | frames ->
    let buf = Buffer.create 512 in
    let encode = per_item frames (fun f -> Codec.encode_into buf f) in
    let wires = List.map (fun f -> Bytes.of_string (Codec.encode f)) frames in
    let decode =
      let st = Codec.Stream.create () in
      per_item wires (fun b ->
          Codec.Stream.feed st b (Bytes.length b);
          ignore (Codec.Stream.next st))
    in
    (1e6 *. encode, 1e6 *. decode)
