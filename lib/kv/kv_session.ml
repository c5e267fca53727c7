open Histories
open Registers
open Simulation
open Transport
open Workload

(* The one live workload driver: one OS thread per client, each drawing
   keys (and, for mixed clients, operation kinds) from its own seeded
   generator, running the chosen registry protocol per key through the
   placement router.  Every operation's latency lands in a
   constant-memory histogram.  With [live_check] every operation on
   every key streams through the checker sink in O(window) memory;
   without it nothing is recorded or checked.  A single register is
   the one-key case. *)

type roles = Mixed of int | Split of { writers : int; readers : int }

type spec = {
  roles : roles;
  ops_per_client : int;
  keys : int;
  dist : Ycsb.dist;
  mix : Ycsb.mix;
  seed : int;
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
    think;
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
  starved : int; (* clients aborted by Unavailable *)
  late : int;
  retries : int;
  dropped : int;
  group_ops : int array; (* operations routed to each shard group *)
  keys_touched : int;
  online : Check_sink.report option;
}

let mean_rounds rounds ops =
  let ops = Array.fold_left ( + ) 0 ops in
  if ops = 0 then 0.0
  else float_of_int (Array.fold_left ( + ) 0 rounds) /. float_of_int ops

type crash = Kill | Restart of Cluster.restart_mode

let run ?(crashes = []) ?rt_timeout ?max_rt_retries
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
  let ngroups = Kv_cluster.group_count cluster in
  List.iter
    (fun (_, g, idx, _) ->
      if g < 0 || g >= ngroups || idx < 0 || idx >= Kv_cluster.s cluster then
        invalid_arg
          (Printf.sprintf
             "Kv_session.run: crash of server %d in group %d (servers \
              0..%d, groups 0..%d)"
             idx g (Kv_cluster.s cluster - 1) (ngroups - 1)))
    crashes;
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
  (* Live checking covers every key: the streaming checker's window
     stays bounded regardless of how many operations flow. *)
  let sink =
    if live_check then Some (Check_sink.create ?on_violation ~now ())
    else None
  in
  let ports =
    Array.init nclients (fun _ -> Option.map Check_sink.port sink)
  in
  (* Per-thread result slots — no cross-thread mutation, no locks.  All
     timestamps come from one monotonic clock, so the checker orders
     operations from different clients correctly.  Latencies go to
     per-thread constant-memory histograms: the million-op soak records
     every latency in ~5KB per series. *)
  let read_hists = Array.init nclients (fun _ -> Stats.Hist.create ()) in
  let write_hists = Array.init nclients (fun _ -> Stats.Hist.create ()) in
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
    (* The operation in flight, kept for the checker only: published
       complete by [finish], or pending if the client aborts. *)
    let current = ref None in
    let start key proc kind =
      match port with
      | None -> now ()
      | Some p ->
        let inv = Check_sink.invoked p in
        current :=
          Some (key, { Op.id = 0; proc; kind; inv; resp = None; result = None });
        inv
    in
    let finish resp result =
      match (port, !current) with
      | Some p, Some (key, op) ->
        current := None;
        Check_sink.completed p ~key { op with Op.resp = Some resp; result }
      | _ -> ()
    in
    (try
       for n = 0 to nops - 1 do
         let rank = Ycsb.next_key ycsb rng in
         let key = Ycsb.key_name rank in
         Hashtbl.replace touched.(i) key ();
         let g = Kv_cluster.group_of cluster key in
         group_ops.(i).(g) <- group_ops.(i).(g) + 1;
         let r0 = Router.rounds_completed cl in
         (match next_kind rng with
         | `Write ->
           let write =
             instance writers
               (fun ctx -> algo.Client_core.new_writer ctx ~writer:id)
               key
           in
           let value = value_base + (id * spec.ops_per_client) + n in
           let inv = start key (Op.Writer id) (Op.Write value) in
           write ~payload:value ~k:(fun _tag ->
               let t1 = now () in
               Stats.Hist.add write_hists.(i) (t1 -. inv);
               write_rounds.(i) <-
                 write_rounds.(i) + Router.rounds_completed cl - r0;
               writes_done.(i) <- writes_done.(i) + 1;
               finish t1 None)
         | `Read ->
           let read =
             instance readers
               (fun ctx -> algo.Client_core.new_reader ctx ~reader:id)
               key
           in
           let inv = start key (Op.Reader id) Op.Read in
           read ~k:(fun value _tag ->
               let t1 = now () in
               Stats.Hist.add read_hists.(i) (t1 -. inv);
               read_rounds.(i) <-
                 read_rounds.(i) + Router.rounds_completed cl - r0;
               reads_done.(i) <- reads_done.(i) + 1;
               finish t1 (Some value)));
         if spec.think > 0.0 then Thread.delay spec.think
       done
     with Endpoint.Unavailable _ -> (
       starved.(i) <- true;
       (* Keep the aborted operation visible to the checker as
          pending — an interrupted write may have taken effect at a
          quorum minority. *)
       match (port, !current) with
       | Some p, Some (key, op) -> Check_sink.completed p ~key op
       | _ -> ()));
    late_counts.(i) <- Router.late_replies cl;
    retry_counts.(i) <- Router.retries cl;
    Router.close_client cl
  in
  (* One scheduler thread replays the crash schedule in time order —
     a kill and its restart stay correctly sequenced even when their
     times collide. *)
  let scheduler =
    if crashes = [] then None
    else
      Some
        (Thread.create
           (List.iter (fun (at, g, idx, crash) ->
                let wait = at -. now () in
                if wait > 0.0 then Thread.delay wait;
                let group = Kv_cluster.group cluster g in
                match crash with
                | Kill -> Cluster.kill group idx
                | Restart mode -> Cluster.restart ~mode group idx))
           (List.stable_sort
              (fun (a, _, _, _) (b, _, _, _) -> Float.compare a b)
              crashes))
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
    starved = Array.fold_left (fun a b -> if b then a + 1 else a) 0 starved;
    late = Array.fold_left ( + ) 0 late_counts;
    retries = Array.fold_left ( + ) 0 retry_counts;
    dropped;
    group_ops = group_totals;
    keys_touched = Hashtbl.length distinct;
    online;
  }
