open Registers
open Transport

(* The client-side placement router: one process-wide view of every
   shard group's data plane, plus per-client handles that turn a key
   into a {!Client_core.ctx} pinned to that key's group.

   The router owns one shared {!Mux.t} per group — all clients in the
   process ride [groups × s] connections total.  The protocol
   algorithms stay key-blind: {!key_ctx} hands them an endpoint that
   stamps the key on every round trip, so any registry protocol runs
   per-key unchanged. *)

type t = {
  kc : Kv_cluster.t;
  muxes : Mux.t array; (* one per group *)
  readers : int; (* the ctx's r: how many clients may read *)
}

(* A group's plane realises the router's own plan, or else the plan the
   group's cluster was started with: both legs of every link are shaped
   client-side, so a plan given only to the cluster still applies. *)
let create ?rt_timeout ?max_rt_retries ?faults ~clients kc =
  let muxes =
    Array.init (Kv_cluster.group_count kc) (fun g ->
        let cl = Kv_cluster.group kc g in
        let faults =
          match faults with Some _ -> faults | None -> Cluster.faults cl
        in
        Mux.create ?rt_timeout ?max_rt_retries ?faults
          ~servers:(Cluster.addrs cl) ~quorum:(Kv_cluster.quorum kc) ())
  in
  { kc; muxes; readers = clients }

type client = {
  eps : Mux.handle array; (* one per shard group *)
  router : t;
}

(* KV clients interleave reads and writes, so one node id serves both
   roles: client [index] is writer [index] (its wid) and reader [index].
   Ids start past the per-group server ids, mirroring Topology's
   servers-first numbering. *)
let client t ~index =
  let node = Kv_cluster.s t.kc + index in
  let eps = Array.map (fun m -> Mux.client m ~client:node) t.muxes in
  { eps; router = t }

let key_ctx c key =
  let t = c.router in
  let g = Kv_cluster.group_of t.kc key in
  let ep = Endpoint.endpoint c.eps.(g) ~key in
  {
    Client_core.writer_ep = (fun _ -> ep);
    reader_ep = (fun _ -> ep);
    s = Kv_cluster.s t.kc;
    t = Kv_cluster.tolerance t.kc;
    r = t.readers;
  }

let sum_eps f c = Array.fold_left (fun acc ep -> acc + f ep) 0 c.eps

let rounds_completed c = sum_eps Mux.rounds_completed c

let late_replies c = sum_eps Mux.late_replies c

let retries c = sum_eps Mux.retries c

let dropped_replies t =
  Array.fold_left (fun acc m -> acc + Mux.dropped_replies m) 0 t.muxes

let close_client c = Array.iter Mux.release c.eps

let shutdown t = Array.iter Mux.shutdown t.muxes
