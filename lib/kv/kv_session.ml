open Histories
open Registers
open Simulation
open Transport
open Workload

(* The one live workload driver: one OS thread per client, each drawing
   keys (and, for mixed clients, operation kinds) from its own seeded
   generator, running the chosen registry protocol per key through the
   placement router.  Every operation's latency lands in a
   constant-memory histogram; full operation histories are kept only
   for a small sampled key set, so the batch checker can pass per-key
   verdicts without the driver holding millions of operations — and
   with [live_check] the streaming checker covers every key in O(window)
   memory on top.  A single register is the one-key, one-sample case. *)

type roles = Mixed of int | Split of { writers : int; readers : int }

type spec = {
  roles : roles;
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
    roles = Mixed 4;
    ops_per_client = 50;
    keys = 100;
    dist = Ycsb.Zipfian Ycsb.default_theta;
    mix = Ycsb.A;
    seed = 42;
    sample_keys = 4;
    think = 0.0;
  }

let register_spec ?(think = 0.0) ~writers ~readers ops =
  {
    roles = Split { writers; readers };
    ops_per_client = ops;
    keys = 1;
    dist = Ycsb.Uniform;
    mix = Ycsb.A;
    seed = 0;
    sample_keys = 1;
    think;
  }

type key_verdict = {
  vkey : string;
  vops : int; (* operations recorded against this key *)
  atomic : bool;
  witness : Checker.Witness.t option;
  history : History.t;
}

type result = {
  duration : float;
  ops : int; (* completed operations across all clients *)
  throughput : float; (* completed ops per second *)
  all_lat : Stats.summary;
  read_lat : Stats.summary;
  write_lat : Stats.summary; (* latencies in seconds *)
  write_rounds : float;
  read_rounds : float;
  verdicts : key_verdict list;
  starved : int; (* clients aborted by Unavailable *)
  late : int;
  retries : int;
  dropped : int;
  group_ops : int array; (* operations routed to each shard group *)
  keys_touched : int;
  online : Check_sink.report option;
}

let history r =
  match r.verdicts with
  | v :: _ -> v.history
  | [] -> invalid_arg "Kv_session.history: no sampled key"

(* One sampled operation, created at invocation (so an op pending at
   the end of the run stays visible to the checker as pending) and
   completed in the continuation. *)
type sop = {
  s_proc : Op.proc;
  s_kind : Op.kind;
  s_inv : float;
  mutable s_resp : float option;
  mutable s_result : int option;
}

let op_of_sop s =
  {
    Op.id = 0;
    proc = s.s_proc;
    kind = s.s_kind;
    inv = s.s_inv;
    resp = s.s_resp;
    result = s.s_result;
  }

(* Ids must be unique; assigning them along invocation order keeps the
   numbering readable (History.of_ops re-sorts by (inv, id) anyway). *)
let history_of_key sops =
  let ops =
    List.sort
      (fun (a : Op.t) b -> compare (a.Op.inv, a.Op.proc) (b.Op.inv, b.Op.proc))
      (List.map op_of_sop sops)
  in
  History.of_ops (List.mapi (fun id (o : Op.t) -> { o with Op.id }) ops)

let mean_rounds rounds ops =
  let ops = Array.fold_left ( + ) 0 ops in
  if ops = 0 then 0.0
  else float_of_int (Array.fold_left ( + ) 0 rounds) /. float_of_int ops

let run ?(kill_at = []) ?(restart_at = []) ?rt_timeout ?max_rt_retries
    ?faults ?(register = Registry.abd_mwmr) ?(live_check = false)
    ?on_violation ~cluster spec =
  (* [may_write]: clients that issue writes, checked against the
     protocol's writer bound; [r]: the reader count every per-key
     context reports (the fast-read admissibility scan depends on it). *)
  let nclients, may_write, r =
    match spec.roles with
    | Mixed n ->
      if n < 1 then invalid_arg "Kv_session.run: clients must be >= 1";
      (n, (if spec.mix = Ycsb.C then 0 else n), n)
    | Split { writers; readers } ->
      if writers < 0 || readers < 0 || writers + readers < 1 then
        invalid_arg "Kv_session.run: need writers, readers >= 0, one client";
      (writers + readers, writers, readers)
  in
  if spec.keys < 1 then invalid_arg "Kv_session.run: keys must be >= 1";
  (match Registry.max_writers register with
  | Some m when may_write > m ->
    invalid_arg
      (Printf.sprintf "Kv_session.run: %s accepts at most %d writer(s)"
         (Registry.name register) m)
  | _ -> ());
  (* Client [i]'s role: its writer/reader id, how it picks an operation
     kind, and how many operations it runs.  Split readers follow the
     writers in node numbering and run twice the writers' op count. *)
  let role i =
    match spec.roles with
    | Mixed _ ->
      (i, (fun rng -> Ycsb.next_op spec.mix rng), spec.ops_per_client)
    | Split { writers; _ } when i < writers ->
      (i, (fun _ -> `Write), spec.ops_per_client)
    | Split { writers; _ } ->
      (i - writers, (fun _ -> `Read), 2 * spec.ops_per_client)
  in
  let algo = Registry.client_algo register in
  let router =
    Router.create ?rt_timeout ?max_rt_retries ?faults ~clients:r cluster
  in
  (* Align the fault plan's rule windows with the run clock. *)
  Option.iter Faults.arm faults;
  let t0 = Clock.now () in
  let now () = Clock.now () -. t0 in
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
    if live_check then Some (Check_sink.create ?on_violation ~now ())
    else None
  in
  let ports =
    Array.init nclients (fun _ -> Option.map Check_sink.port sink)
  in
  (* Per-thread result slots — no cross-thread mutation, no locks.  All
     timestamps come from one monotonic clock, so the merged per-key
     histories order correctly.  Latencies go to per-thread
     constant-memory histograms: the million-op soak records every
     latency in ~5KB per series. *)
  let read_hists = Array.init nclients (fun _ -> Stats.Hist.create ()) in
  let write_hists = Array.init nclients (fun _ -> Stats.Hist.create ()) in
  let sample_logs = Array.make nclients [] in
  let group_ops = Array.init nclients (fun _ -> Array.make ngroups 0) in
  let touched = Array.init nclients (fun _ -> Hashtbl.create 64) in
  let starved = Array.make nclients false in
  let late_counts = Array.make nclients 0 in
  let retry_counts = Array.make nclients 0 in
  (* Round trips and op counts of completed operations only: rounds
     burned inside an op that later aborted with [Unavailable] must not
     skew the Table-1 rounds columns. *)
  let write_rounds = Array.make nclients 0 in
  let writes_done = Array.make nclients 0 in
  let read_rounds = Array.make nclients 0 in
  let reads_done = Array.make nclients 0 in
  (* Distinct written values without a shared counter: writer [id] owns
     the contiguous block starting at [initial + 1 + id * ops]. *)
  let value_base = History.initial_value + 1 in
  let body i () =
    let id, next_kind, nops = role i in
    let rng = Rng.create ~seed:(spec.seed + ((i + 1) * 7919)) in
    let cl = Router.client router ~index:i in
    (* Protocol instances are per (client, key): the writer/reader
       closures carry per-register state (clocks, valQueues), so one
       instance per key this client touches, memoized. *)
    let writers = Hashtbl.create 64 in
    let readers = Hashtbl.create 64 in
    let instance tbl make key =
      match Hashtbl.find_opt tbl key with
      | Some f -> f
      | None ->
        let f = make (Router.key_ctx cl key) in
        Hashtbl.replace tbl key f;
        f
    in
    let port = ports.(i) in
    let invoke () =
      match port with Some p -> Check_sink.invoked p | None -> now ()
    in
    let publish key s =
      match port with
      | Some p -> Check_sink.completed p ~key (op_of_sop s)
      | None -> ()
    in
    let current = ref None in
    let slog = ref [] in
    (try
       for n = 0 to nops - 1 do
         let rank = Ycsb.next_key ycsb rng in
         let key = Ycsb.key_name rank in
         Hashtbl.replace touched.(i) key ();
         let g = Kv_cluster.group_of cluster key in
         group_ops.(i).(g) <- group_ops.(i).(g) + 1;
         let start proc kind =
           let s =
             {
               s_proc = proc;
               s_kind = kind;
               s_inv = invoke ();
               s_resp = None;
               s_result = None;
             }
           in
           if Hashtbl.mem sampled key then slog := (key, s) :: !slog;
           current := Some (key, s);
           s
         in
         let r0 = Router.rounds_completed cl in
         (match next_kind rng with
         | `Write ->
           let write =
             instance writers
               (fun ctx -> algo.Client_core.new_writer ctx ~writer:id)
               key
           in
           let value = value_base + (id * spec.ops_per_client) + n in
           let s = start (Op.Writer id) (Op.Write value) in
           write ~payload:value ~k:(fun _tag ->
               let t1 = now () in
               s.s_resp <- Some t1;
               Stats.Hist.add write_hists.(i) (t1 -. s.s_inv);
               write_rounds.(i) <-
                 write_rounds.(i) + Router.rounds_completed cl - r0;
               writes_done.(i) <- writes_done.(i) + 1);
           publish key s
         | `Read ->
           let read =
             instance readers
               (fun ctx -> algo.Client_core.new_reader ctx ~reader:id)
               key
           in
           let s = start (Op.Reader id) Op.Read in
           read ~k:(fun value _tag ->
               let t1 = now () in
               s.s_resp <- Some t1;
               s.s_result <- Some value;
               Stats.Hist.add read_hists.(i) (t1 -. s.s_inv);
               read_rounds.(i) <-
                 read_rounds.(i) + Router.rounds_completed cl - r0;
               reads_done.(i) <- reads_done.(i) + 1);
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
  (* One scheduler thread replays the merged crash/restart timeline in
     order — a kill and its restart stay correctly sequenced even when
     their times collide. *)
  let events =
    List.stable_sort
      (fun (a, _) (b, _) -> compare a b)
      (List.map (fun (at, g, idx) -> (at, (g, idx, None))) kill_at
      @ List.map (fun (at, g, idx, mode) -> (at, (g, idx, Some mode)))
          restart_at)
  in
  let scheduler =
    if events = [] then None
    else
      Some
        (Thread.create
           (List.iter (fun (at, (g, idx, restart)) ->
                let wait = at -. now () in
                if wait > 0.0 then Thread.delay wait;
                let group = Kv_cluster.group cluster g in
                match restart with
                | None -> Cluster.kill group idx
                | Some mode -> Cluster.restart ~mode group idx))
           events)
  in
  Option.iter Check_sink.start sink;
  let threads = List.init nclients (fun i -> Thread.create (body i) ()) in
  List.iter Thread.join threads;
  Option.iter Thread.join scheduler;
  let duration = now () in
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
  let ops =
    Array.fold_left ( + ) 0 writes_done + Array.fold_left ( + ) 0 reads_done
  in
  let verdicts =
    List.init nsample (fun rank ->
        let key = Ycsb.key_name rank in
        let sops =
          List.concat_map
            (List.filter_map (fun (k, s) -> if k = key then Some s else None))
            (Array.to_list sample_logs)
        in
        let history = history_of_key sops in
        let atomic, witness =
          match Checker.Atomicity.check history with
          | Ok () -> (true, None)
          | Error w -> (false, Some w)
        in
        { vkey = key; vops = List.length sops; atomic; witness; history })
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
    all_lat = Stats.Hist.summary all_h;
    read_lat = Stats.Hist.summary read_h;
    write_lat = Stats.Hist.summary write_h;
    write_rounds = mean_rounds write_rounds writes_done;
    read_rounds = mean_rounds read_rounds reads_done;
    verdicts;
    starved = Array.fold_left (fun a b -> if b then a + 1 else a) 0 starved;
    late = Array.fold_left ( + ) 0 late_counts;
    retries = Array.fold_left ( + ) 0 retry_counts;
    dropped;
    group_ops = group_totals;
    keys_touched = Hashtbl.length distinct;
    online;
  }
