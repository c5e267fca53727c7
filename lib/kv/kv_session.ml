open Histories
open Registers
open Simulation
open Transport
open Workload

(* The YCSB-shaped closed-loop driver over a sharded keyspace: one OS
   thread per client, each drawing keys and operation kinds from its own
   seeded generator, running the chosen registry protocol per key
   through the placement router.  Every operation's latency lands in a
   constant-memory histogram; full operation histories are kept only
   for a small sampled key set, so the batch checker can pass per-key
   verdicts without the driver holding millions of operations — and
   with [live_check] the streaming checker covers every key in O(window)
   memory on top. *)

type spec = {
  clients : int;
  ops_per_client : int;
  keys : int;
  dist : Ycsb.dist;
  mix : Ycsb.mix;
  seed : int;
  sample_keys : int; (* record + check the first [sample_keys] ranks *)
  think : float;
}

let default_spec =
  {
    clients = 4;
    ops_per_client = 50;
    keys = 100;
    dist = Ycsb.Zipfian Ycsb.default_theta;
    mix = Ycsb.A;
    seed = 42;
    sample_keys = 4;
    think = 0.0;
  }

type key_verdict = {
  vkey : string;
  vops : int; (* operations recorded against this key *)
  atomic : bool;
  witness : Checker.Witness.t option;
}

type result = {
  duration : float;
  ops : int; (* completed operations across all clients *)
  throughput : float; (* completed ops per second *)
  all_lat : Stats.summary;
  read_lat : Stats.summary;
  write_lat : Stats.summary; (* latencies in seconds *)
  verdicts : key_verdict list;
  starved : int; (* clients aborted by Unavailable *)
  late : int;
  retries : int;
  dropped : int;
  group_ops : int array; (* operations routed to each shard group *)
  keys_touched : int;
  online : Check_sink.report option;
}

(* One sampled operation: same shape as the session runner's private
   logs — created at invocation (so an op pending at the end of the run
   stays visible to the checker as pending), completed in the
   continuation. *)
type sop = {
  s_kind : Op.kind;
  s_reader : bool;
  s_inv : float;
  mutable s_resp : float option;
  mutable s_result : int option;
}

let history_of_key records =
  let ops =
    List.map
      (fun (client, s) ->
        {
          Op.id = 0;
          proc = (if s.s_reader then Op.Reader client else Op.Writer client);
          kind = s.s_kind;
          inv = s.s_inv;
          resp = s.s_resp;
          result = s.s_result;
        })
      records
  in
  let ops =
    List.sort
      (fun (a : Op.t) b -> compare (a.Op.inv, a.Op.proc) (b.Op.inv, b.Op.proc))
      ops
  in
  History.of_ops (List.mapi (fun id (o : Op.t) -> { o with Op.id }) ops)

let op_of_sop client s =
  {
    Op.id = 0;
    proc = (if s.s_reader then Op.Reader client else Op.Writer client);
    kind = s.s_kind;
    inv = s.s_inv;
    resp = s.s_resp;
    result = s.s_result;
  }

let run ?rt_timeout ?max_rt_retries ?faults
    ?(register = Registry.abd_mwmr) ?(live_check = false) ?on_violation
    ~cluster spec =
  if spec.clients < 1 then invalid_arg "Kv_session.run: clients must be >= 1";
  if spec.keys < 1 then invalid_arg "Kv_session.run: keys must be >= 1";
  (match Registry.max_writers register with
  | Some m when spec.clients > m && spec.mix <> Ycsb.C ->
    invalid_arg
      (Printf.sprintf "Kv_session.run: %s accepts at most %d writer(s)"
         (Registry.name register) m)
  | _ -> ());
  let algo = Registry.client_algo register in
  let router =
    Router.create ?rt_timeout ?max_rt_retries ?faults
      ~clients:spec.clients cluster
  in
  let ycsb = Ycsb.create ~dist:spec.dist ~keys:spec.keys in
  let nsample = min spec.sample_keys spec.keys in
  let sampled = Hashtbl.create (max 1 nsample) in
  for rank = 0 to nsample - 1 do
    Hashtbl.replace sampled (Ycsb.key_name rank) ()
  done;
  let ngroups = Kv_cluster.group_count cluster in
  (* Live checking covers every key, not just the sampled ranks: the
     streaming checker's window stays bounded regardless of how many
     operations flow, so there is no need to down-sample. *)
  let sink =
    if live_check then Some (Check_sink.create ?on_violation ~now:Clock.now ())
    else None
  in
  let ports = Array.init spec.clients (fun _ -> Option.map Check_sink.port sink) in
  (* Per-thread result slots — no cross-thread mutation, no locks.  All
     timestamps are monotonic ({!Clock.now}), one clock for every
     thread, so the merged per-key histories order correctly. *)
  (* Per-thread constant-memory histograms instead of per-op lists:
     the million-op soak records every latency in ~5KB per series. *)
  let read_hists = Array.init spec.clients (fun _ -> Stats.Hist.create ()) in
  let write_hists = Array.init spec.clients (fun _ -> Stats.Hist.create ()) in
  let sample_logs = Array.make spec.clients [] in
  let group_ops = Array.init spec.clients (fun _ -> Array.make ngroups 0) in
  let touched = Array.init spec.clients (fun _ -> Hashtbl.create 64) in
  let completed = Array.make spec.clients 0 in
  let starved = Array.make spec.clients false in
  let late_counts = Array.make spec.clients 0 in
  let retry_counts = Array.make spec.clients 0 in
  (* Distinct written values without a shared counter: client [i] owns
     the contiguous block starting at [initial + 1 + i * ops]. *)
  let value_base = History.initial_value + 1 in
  let body i () =
    let rng = Rng.create ~seed:(spec.seed + ((i + 1) * 7919)) in
    let cl = Router.client router ~index:i in
    (* Protocol instances are per (client, key): the writer/reader
       closures carry per-register state (clocks, valQueues), so one
       instance per key this client touches, memoized. *)
    let writers = Hashtbl.create 64 in
    let readers = Hashtbl.create 64 in
    let writer_for key =
      match Hashtbl.find_opt writers key with
      | Some w -> w
      | None ->
        let w = algo.Client_core.new_writer (Router.key_ctx cl key) ~writer:i in
        Hashtbl.replace writers key w;
        w
    in
    let reader_for key =
      match Hashtbl.find_opt readers key with
      | Some r -> r
      | None ->
        let r = algo.Client_core.new_reader (Router.key_ctx cl key) ~reader:i in
        Hashtbl.replace readers key r;
        r
    in
    let port = ports.(i) in
    let invoke () =
      match port with Some p -> Check_sink.invoked p | None -> Clock.now ()
    in
    let publish key s =
      match port with
      | Some p -> Check_sink.completed p ~key (op_of_sop i s)
      | None -> ()
    in
    let current = ref None in
    let slog = ref [] in
    (try
       for n = 0 to spec.ops_per_client - 1 do
         let rank = Ycsb.next_key ycsb rng in
         let key = Ycsb.key_name rank in
         Hashtbl.replace touched.(i) key ();
         let g = Kv_cluster.group_of cluster key in
         group_ops.(i).(g) <- group_ops.(i).(g) + 1;
         let is_sampled = Hashtbl.mem sampled key in
         let record s =
           if is_sampled then slog := (key, s) :: !slog;
           current := Some (key, s)
         in
         (match Ycsb.next_op spec.mix rng with
         | `Write ->
           let write = writer_for key in
           let value = value_base + (i * spec.ops_per_client) + n in
           let t0 = invoke () in
           let s =
             {
               s_kind = Op.Write value;
               s_reader = false;
               s_inv = t0;
               s_resp = None;
               s_result = None;
             }
           in
           record s;
           write ~payload:value ~k:(fun _tag ->
               let t1 = Clock.now () in
               s.s_resp <- Some t1;
               Stats.Hist.add write_hists.(i) (t1 -. t0);
               completed.(i) <- completed.(i) + 1);
           publish key s
         | `Read ->
           let read = reader_for key in
           let t0 = invoke () in
           let s =
             {
               s_kind = Op.Read;
               s_reader = true;
               s_inv = t0;
               s_resp = None;
               s_result = None;
             }
           in
           record s;
           read ~k:(fun value _tag ->
               let t1 = Clock.now () in
               s.s_resp <- Some t1;
               s.s_result <- Some value;
               Stats.Hist.add read_hists.(i) (t1 -. t0);
               completed.(i) <- completed.(i) + 1);
           publish key s);
         if spec.think > 0.0 then Thread.delay spec.think
       done
     with Endpoint.Unavailable _ ->
       starved.(i) <- true;
       (* Keep the aborted operation visible to the checker as
          pending — an interrupted write may have taken effect at a
          quorum minority. *)
       (match !current with
       | Some (key, s) when s.s_resp = None -> publish key s
       | _ -> ()));
    sample_logs.(i) <- !slog;
    late_counts.(i) <- Router.late_replies cl;
    retry_counts.(i) <- Router.retries cl;
    Router.close_client cl
  in
  Option.iter Check_sink.start sink;
  let t0 = Clock.now () in
  let threads =
    List.init spec.clients (fun i -> Thread.create (body i) ())
  in
  List.iter Thread.join threads;
  let duration = Clock.now () -. t0 in
  let online = Option.map Check_sink.stop sink in
  let dropped = Router.dropped_replies router in
  Router.shutdown router;
  (* Aggregate the per-thread histograms. *)
  let read_h = Stats.Hist.create () in
  let write_h = Stats.Hist.create () in
  Array.iter (fun h -> Stats.Hist.merge ~into:read_h h) read_hists;
  Array.iter (fun h -> Stats.Hist.merge ~into:write_h h) write_hists;
  let all_h = Stats.Hist.create () in
  Stats.Hist.merge ~into:all_h read_h;
  Stats.Hist.merge ~into:all_h write_h;
  let all_lat = Stats.Hist.summary all_h in
  let read_lat = Stats.Hist.summary read_h in
  let write_lat = Stats.Hist.summary write_h in
  let ops = Array.fold_left ( + ) 0 completed in
  let verdicts =
    List.init nsample (fun rank ->
        let key = Ycsb.key_name rank in
        let records =
          Array.to_list
            (Array.mapi
               (fun i log ->
                 List.filter_map
                   (fun (k, s) -> if k = key then Some (i, s) else None)
                   log)
               sample_logs)
          |> List.concat
        in
        let history = history_of_key records in
        let atomic, witness =
          match Checker.Atomicity.check history with
          | Ok () -> (true, None)
          | Error w -> (false, Some w)
        in
        { vkey = key; vops = List.length records; atomic; witness })
  in
  let group_totals = Array.make ngroups 0 in
  Array.iter
    (fun per ->
      Array.iteri (fun g n -> group_totals.(g) <- group_totals.(g) + n) per)
    group_ops;
  let distinct = Hashtbl.create 256 in
  Array.iter
    (fun tbl -> Hashtbl.iter (fun k () -> Hashtbl.replace distinct k ()) tbl)
    touched;
  {
    duration;
    ops;
    throughput = (if duration > 0.0 then float_of_int ops /. duration else 0.0);
    all_lat;
    read_lat;
    write_lat;
    verdicts;
    starved = Array.fold_left (fun a b -> if b then a + 1 else a) 0 starved;
    late = Array.fold_left ( + ) 0 late_counts;
    retries = Array.fold_left ( + ) 0 retry_counts;
    dropped;
    group_ops = group_totals;
    keys_touched = Hashtbl.length distinct;
    online;
  }
