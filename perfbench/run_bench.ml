(* The live benchmark driver.

   One invocation runs one workload against an in-process
   {!Kv.Kv_cluster}: registry protocol clients per key, two client
   threads, one {!Kv.Router} on the mux plane, every link shaped by a
   {!Transport.Geo} profile so that each timed figure rides on injected
   network delay rather than on how fast the host happens to be this
   minute.  Every op is timed from outside; no library code is
   instrumented.

   [--trace 0] sets up the cluster three times (the median is [setup_s]),
   runs the timed phase untraced and prints the end-to-end metrics.
   [--trace 1] runs an untraced reference phase and then a traced one,
   each on a fresh cluster, and prints the per-layer metrics; the two
   phases' mean op latencies give the tracing overhead.  Either way the
   last stdout line is one JSON object, and a run that breaks a
   correctness rule reports no numbers and exits 1. *)

open Perfbench
open Histories
open Registers
open Transport
open Workload

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type loop = Closed | Open of float  (** offered ops/s *)

type check =
  | Batch of int  (** record the hottest ranks, batch-check after timing *)
  | Live  (** every op through the streaming {!Check_sink} *)

type workload = {
  name : string;
  profile : Geo.profile;
  s : int;
  tol : int;
  register : Protocol.Register_intf.t;
  keys : int;
  dist : Ycsb.dist;
  mix : Ycsb.mix;
  loop : loop;
  check : check;
  warm_clients : int;
      (** set-up threads reading every key once; 0 = the timed clients
          do it (a fast-read protocol's reader count is bounded) *)
}

(* Two client threads: the host has two cores. *)
let clients = 2

(* {!Registers.Keyspace}'s default resident bound on every server. *)
let hot_set = 4096

let workloads =
  [
    (* Hot keys, two hot-path round trips per op, no keyspace misses:
       the delay-staging path dominates. *)
    {
      name = "kv-lan-a";
      profile = Geo.lan;
      s = 3;
      tol = 1;
      register = Registry.abd_mwmr;
      keys = 1000;
      dist = Ycsb.Zipfian Ycsb.default_theta;
      mix = Ycsb.A;
      loop = Closed;
      check = Batch 8;
      warm_clients = 4;
    };
    (* The same keyspace layer the opposite way round: a keyspace 8x
       the hot set, uniformly accessed, so most accesses rehydrate a
       demoted replica; open-loop arrivals at about half of what two
       closed-loop clients sustain; the streaming checker on. *)
    {
      name = "kv-cold-b-open";
      profile = Geo.lan;
      s = 3;
      tol = 1;
      register = Registry.abd_mwmr;
      keys = 8 * hot_set;
      dist = Ycsb.Uniform;
      mix = Ycsb.B;
      loop = Open 200.0;
      check = Live;
      warm_clients = 32;
    };
    (* The paper's claim end to end: one-round reads, two-round writes,
       R = 2 < S/t - 2, across three WAN regions. *)
    {
      name = "geo-wan-w2r1";
      profile = Geo.wan_3region;
      s = 5;
      tol = 1;
      register = Registry.fastread_w2r1;
      keys = 16;
      dist = Ycsb.Zipfian Ycsb.default_theta;
      mix = Ycsb.A;
      loop = Closed;
      check = Batch 16;
      warm_clients = 0;
    };
  ]

let expected_rounds w kind =
  let dp = Registry.design_point w.register in
  match kind with
  | `Read -> Quorums.Bounds.read_rounds dp
  | `Write -> Quorums.Bounds.write_rounds dp

let rt_timeout w = Float.max 1.0 (8.0 *. Geo.max_rtt w.profile)

(* ------------------------------------------------------------------ *)
(* Clients and set-up                                                  *)
(* ------------------------------------------------------------------ *)

type client = {
  index : int;
  rc : Kv.Router.client;
  algo : Client_core.algo;
  tracer : Trace.t option;
  writers : (string, Client_core.writer_fn) Hashtbl.t;
  readers : (string, Client_core.reader_fn) Hashtbl.t;
}

let make_client ~traced router algo index =
  {
    index;
    rc = Kv.Router.client router ~index;
    algo;
    tracer = (if traced then Some (Trace.create ()) else None);
    writers = Hashtbl.create 64;
    readers = Hashtbl.create 64;
  }

let ctx c key =
  let ctx = Kv.Router.key_ctx c.rc key in
  match c.tracer with Some tr -> Trace.wrap_ctx tr ctx | None -> ctx

(* Protocol state (clocks, valQueues) is per (client, key). *)
let writer c key =
  match Hashtbl.find_opt c.writers key with
  | Some w -> w
  | None ->
    let w = c.algo.Client_core.new_writer (ctx c key) ~writer:c.index in
    Hashtbl.replace c.writers key w;
    w

let reader c key =
  match Hashtbl.find_opt c.readers key with
  | Some r -> r
  | None ->
    let r = c.algo.Client_core.new_reader (ctx c key) ~reader:c.index in
    Hashtbl.replace c.readers key r;
    r

let read_once c key = (reader c key) ~k:(fun _ _ -> ())

type env = {
  kc : Kv.Kv_cluster.t;
  router : Kv.Router.t;
  cs : client array;
}

let teardown env =
  Array.iter (fun c -> Kv.Router.close_client c.rc) env.cs;
  Kv.Router.shutdown env.router;
  Kv.Kv_cluster.shutdown env.kc

let join_all fs =
  List.iter Thread.join (List.map (fun f -> Thread.create f ()) fs)

(* Cluster start, dialling, and one read of every key, so the timed
   phase sees connections up and every key's replica existing (on
   [kv-cold-b-open], mostly demoted).  The warm-up clients sit in the
   Geo plan like the timed ones, so set-up rides on the same delay. *)
let setup w ~seed ~traced =
  let t0 = Clock.now () in
  let nodes = List.init (clients + w.warm_clients) (fun i -> w.s + i) in
  let faults = Geo.plan ~seed w.profile ~s:w.s ~clients:nodes in
  let kc = Kv.Kv_cluster.start ~faults ~groups:1 ~s:w.s ~tol:w.tol () in
  let router =
    Kv.Router.create ~faults ~rt_timeout:(rt_timeout w) ~clients kc
  in
  let algo = Registry.client_algo w.register in
  let cs = Array.init clients (make_client ~traced router algo) in
  let warm n read =
    join_all
      (List.init n (fun j () ->
           let rank = ref j in
           while !rank < w.keys do
             read j (Ycsb.key_name !rank);
             rank := !rank + n
           done))
  in
  (if w.warm_clients = 0 then warm clients (fun j key -> read_once cs.(j) key)
   else
     let wcs =
       Array.init w.warm_clients (fun j ->
           make_client ~traced:false router algo (clients + j))
     in
     warm w.warm_clients (fun j key -> read_once wcs.(j) key);
     Array.iter (fun c -> Kv.Router.close_client c.rc) wcs);
  Array.iter (fun c -> Option.iter Trace.reset c.tracer) cs;
  (Clock.now () -. t0, { kc; router; cs })

(* ------------------------------------------------------------------ *)
(* The timed phase                                                     *)
(* ------------------------------------------------------------------ *)

type sample = {
  kind : Gen.kind;
  rank : int;
  start : float;  (** when the op was invoked *)
  lat : float;
      (** seconds from invocation, plus (open loop) the time the arrival
          waited for a free worker after it fell due *)
  service : float;  (** seconds from invocation to completion *)
  rounds : int;
}

(* A recorded op of a batch-checked key, completed in place. *)
type rec_op = {
  r_client : int;
  r_kind : Op.kind;
  r_inv : float;
  mutable r_resp : float option;
  mutable r_result : int option;
}

type phase = {
  samples : sample array;  (** completed ops, by start time *)
  elapsed : float;
  attempted : int;
  failed : int;
  recorded : (string * rec_op list) list;
  online : Check_sink.report option;
  late : float array;  (** open loop: a sleeping worker's oversleep, s *)
  backlog_max : int;
  kept_up : bool;
  retries : int;
  late_replies : int;
  dropped : int;
  hot_ratio : float;
  cpu : float;
  minor_words : float;
  major : int;
  spin_before : float;
  spin_after : float;
  peak_heap_words : int;
  spans : Trace.span list;
  frames : (string * Wire.req * (int * Wire.rep) list) list;
}

(* A fixed spin loop: its time before and after the phase shows whether
   the host slowed down underneath the run. *)
let spin () =
  let t0 = Clock.now () in
  let x = ref 0 in
  for i = 1 to 5_000_000 do
    x := Sys.opaque_identity ((!x * 31) + i)
  done;
  Clock.now () -. t0

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Per-thread accumulators, merged after the join. *)
type acc = {
  mutable a_samples : sample list;
  mutable a_attempted : int;
  mutable a_failed : int;
  mutable a_recorded : (string * rec_op) list;
  mutable a_late : float list;
  mutable a_backlog : (float * int) list;
}

let new_acc () =
  {
    a_samples = [];
    a_attempted = 0;
    a_failed = 0;
    a_recorded = [];
    a_late = [];
    a_backlog = [];
  }

let op_of r =
  {
    Op.id = 0;
    proc =
      (match r.r_kind with
      | Op.Read -> Op.Reader r.r_client
      | Op.Write _ -> Op.Writer r.r_client);
    kind = r.r_kind;
    inv = r.r_inv;
    resp = r.r_resp;
    result = r.r_result;
  }

let run_phase w ~seed ~seconds env =
  let ycsb = Ycsb.create ~dist:w.dist ~keys:w.keys in
  let sampled =
    match w.check with
    | Batch n -> fun rank -> rank < n
    | Live -> fun _ -> false
  in
  let sink =
    match w.check with
    | Live -> Some (Check_sink.create ~now:Clock.now ())
    | Batch _ -> None
  in
  let ports = Array.map (fun _ -> Option.map Check_sink.port sink) env.cs in
  let accs = Array.map (fun _ -> new_acc ()) env.cs in
  (* One op by client [c]; false once the client hit [Unavailable]. *)
  let exec_op c ~id ~queued ~rank ~kind ~value =
    let a = accs.(c.index) and port = ports.(c.index) in
    let key = Ycsb.key_name rank in
    let r0 = Kv.Router.rounds_completed c.rc in
    let t0 =
      match port with Some p -> Check_sink.invoked p | None -> Clock.now ()
    in
    let r =
      {
        r_client = c.index;
        r_kind = (match kind with `Read -> Op.Read | `Write -> Op.Write value);
        r_inv = t0;
        r_resp = None;
        r_result = None;
      }
    in
    let publish () =
      Option.iter (fun p -> Check_sink.completed p ~key (op_of r)) port
    in
    if sampled rank then a.a_recorded <- (key, r) :: a.a_recorded;
    a.a_attempted <- a.a_attempted + 1;
    Option.iter (fun tr -> Trace.begin_op tr ~id ~key) c.tracer;
    let finish t1 result =
      r.r_resp <- Some t1;
      r.r_result <- result;
      Option.iter (fun tr -> Trace.end_op tr ~kind ~start:t0 ~stop:t1) c.tracer;
      a.a_samples <-
        {
          kind;
          rank;
          start = t0;
          lat = queued +. (t1 -. t0);
          service = t1 -. t0;
          rounds = Kv.Router.rounds_completed c.rc - r0;
        }
        :: a.a_samples
    in
    match
      match kind with
      | `Write ->
        (writer c key) ~payload:value ~k:(fun _ -> finish (Clock.now ()) None)
      | `Read ->
        (reader c key) ~k:(fun v _ -> finish (Clock.now ()) (Some v))
    with
    | () ->
      publish ();
      true
    | exception Endpoint.Unavailable _ ->
      (* Left pending: an interrupted write may still take effect. *)
      a.a_failed <- a.a_failed + 1;
      publish ();
      false
  in
  let value_of n = History.initial_value + 1 + n in
  (* Router counters run from dialling on; the phase reports its own. *)
  let counters () =
    let sum f = Array.fold_left (fun n c -> n + f c.rc) 0 env.cs in
    ( sum Kv.Router.retries,
      sum Kv.Router.late_replies,
      Kv.Router.dropped_replies env.router )
  in
  let retries0, late0, dropped0 = counters () in
  (* Set-up garbage is collected before timing, not during it. *)
  Gc.full_major ();
  (* The major heap's high-water mark over the timed phase alone, read
     whenever a major cycle ends and once more when the phase ends. *)
  let peak_heap = ref 0 in
  let heap_sample () =
    peak_heap := max !peak_heap (Gc.quick_stat ()).Gc.heap_words
  in
  heap_sample ();
  let alarm = Gc.create_alarm heap_sample in
  let spin_before = spin () in
  let gc0 = Gc.quick_stat () and cpu0 = cpu_now () in
  Option.iter Check_sink.start sink;
  let t_start = Clock.now () in
  let deadline = t_start +. seconds in
  let bodies =
    match w.loop with
    | Closed ->
      Array.to_list
        (Array.map
           (fun c () ->
             let st = Gen.stream ~seed ~client:c.index ycsb w.mix in
             let n = ref 0 and ok = ref true in
             while !ok && Clock.now () < deadline do
               let rank, kind = Gen.next st in
               let id = (!n * clients) + c.index in
               ok := exec_op c ~id ~queued:0.0 ~rank ~kind ~value:(value_of id);
               incr n
             done)
           env.cs)
    | Open rate ->
      let arrivals = Gen.schedule ~seed ~rate ~seconds ycsb w.mix in
      let next = Atomic.make 0 in
      Array.to_list
        (Array.map
           (fun c () ->
             let a = accs.(c.index) in
             let ok = ref true in
             while !ok do
               let i = Atomic.fetch_and_add next 1 in
               if i >= Array.length arrivals then ok := false
               else begin
                 let arr = arrivals.(i) in
                 let due = t_start +. arr.Gen.due in
                 let fetched = Clock.now () in
                 if due > fetched then Thread.delay (due -. fetched);
                 let now = Clock.now () in
                 (* An arrival fetched after it fell due waited that long
                    for a free worker: the system's queueing, counted in
                    its latency.  Time past [max due fetched] is the
                    sleeping worker's own oversleep: generator lateness,
                    reported apart so host wake-up jitter does not pose
                    as program latency. *)
                 a.a_late <- (now -. Float.max due fetched) :: a.a_late;
                 (* Due but not yet started, besides this one. *)
                 let offset = now -. t_start in
                 a.a_backlog <-
                   (offset, Gen.due_by arrivals offset - i - 1) :: a.a_backlog;
                 ok :=
                   exec_op c ~id:i
                     ~queued:(Float.max 0.0 (fetched -. due))
                     ~rank:arr.Gen.rank
                     ~kind:arr.Gen.kind ~value:(value_of i)
               end
             done)
           env.cs)
  in
  join_all bodies;
  heap_sample ();
  Gc.delete_alarm alarm;
  let online = Option.map Check_sink.stop sink in
  let cpu = cpu_now () -. cpu0 and gc1 = Gc.quick_stat () in
  let spin_after = spin () in
  let samples =
    Array.of_list (List.concat_map (fun a -> a.a_samples) (Array.to_list accs))
  in
  Array.sort (fun a b -> Float.compare a.start b.start) samples;
  let t_end =
    Array.fold_left (fun m s -> Float.max m (s.start +. s.service)) t_start
      samples
  in
  let recorded =
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun a ->
        List.iter
          (fun (k, r) ->
            Hashtbl.replace tbl k
              (r :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
          a.a_recorded)
      accs;
    List.sort compare (Hashtbl.fold (fun k rs acc -> (k, rs) :: acc) tbl [])
  in
  let backlog = List.concat_map (fun a -> a.a_backlog) (Array.to_list accs) in
  let cl = Kv.Kv_cluster.group env.kc 0 in
  let hot_ratio =
    Pct.mean
      (Array.init w.s (fun i ->
           let ks = Cluster.keyspace cl i in
           float_of_int (Keyspace.hot_count ks)
           /. float_of_int (max 1 (Keyspace.key_count ks))))
  in
  let retries1, late1, dropped1 = counters () in
  let tracers = List.filter_map (fun c -> c.tracer) (Array.to_list env.cs) in
  {
    samples;
    elapsed = t_end -. t_start;
    attempted = Array.fold_left (fun n a -> n + a.a_attempted) 0 accs;
    failed = Array.fold_left (fun n a -> n + a.a_failed) 0 accs;
    recorded;
    online;
    late =
      Array.of_list (List.concat_map (fun a -> a.a_late) (Array.to_list accs));
    backlog_max = List.fold_left (fun m (_, b) -> max m b) 0 backlog;
    kept_up = Gen.kept_up ~seconds backlog;
    retries = retries1 - retries0;
    late_replies = late1 - late0;
    dropped = dropped1 - dropped0;
    hot_ratio;
    cpu;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    spin_before;
    spin_after;
    peak_heap_words = !peak_heap;
    spans = List.concat_map (fun tr -> tr.Trace.spans) tracers;
    frames = List.concat_map (fun tr -> tr.Trace.frames) tracers;
  }

(* ------------------------------------------------------------------ *)
(* Correctness gate                                                    *)
(* ------------------------------------------------------------------ *)

let history_of recs =
  let ops = List.map op_of recs in
  let ops =
    List.sort
      (fun (a : Op.t) b -> compare (a.Op.inv, a.Op.proc) (b.Op.inv, b.Op.proc))
      ops
  in
  History.of_ops (List.mapi (fun id (o : Op.t) -> { o with Op.id }) ops)

(* Every broken rule, as a line; [] when the phase passes. *)
let violations w p =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if p.failed > 0 then err "%d of %d ops Unavailable" p.failed p.attempted;
  Array.iter
    (fun s ->
      let want = expected_rounds w s.kind in
      if s.rounds <> want then
        err "a %s took %d rounds, Table 1 says %d"
          (match s.kind with `Read -> "read" | `Write -> "write")
          s.rounds want)
    p.samples;
  List.iter
    (fun (key, recs) ->
      match Checker.Atomicity.check (history_of recs) with
      | Ok () -> ()
      | Error _ -> err "key %s: history not atomic" key)
    p.recorded;
  Option.iter
    (fun r -> if not (Check_sink.atomic r) then err "live checker: not atomic")
    p.online;
  if not p.kept_up then
    err "open-loop backlog grew through the timed phase (max %d)" p.backlog_max;
  List.sort_uniq compare !errs

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let metrics = ref []

(* Record a metric and print it by name with its unit and sample
   count. *)
let metric name unit ?(n = 1) ?(note = "") value =
  Printf.printf "  %-28s %14.6f %-8s n=%d%s\n" name value unit n
    (if note = "" then "" else "  " ^ note);
  metrics := (name, value, unit) :: !metrics

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed =
  let ms =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v)
          unit)
      !metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " ms)

let of_kind k p =
  Array.of_list
    (List.filter_map
       (fun s -> if s.kind = k then Some s else None)
       (Array.to_list p.samples))

let kind_name = function `Read -> "read" | `Write -> "write"

(* Latencies in ms, in the order the ops started. *)
let lat_ms k p = Array.map (fun s -> 1e3 *. s.lat) (of_kind k p)

(* A percentile of sorted samples, 0 where a layer took none. *)
let pct_or0 sorted q =
  if Array.length sorted = 0 then 0.0 else Pct.percentile sorted q

let p50_metric name sorted =
  metric name "ms" ~n:(Array.length sorted) (pct_or0 sorted 50.0)

let tail_metric name sorted =
  match Pct.tail sorted with
  | Some t ->
    metric name "ms" ~n:t.Pct.n t.Pct.value
      ~note:(Printf.sprintf "p%.2f, %d beyond" t.Pct.pct t.Pct.beyond)
  | None ->
    metric name "ms" ~n:(Array.length sorted) ~note:"too few samples" 0.0

let end_to_end w p ~setup_s =
  metric "throughput_ops_s" "ops/s" ~n:(Array.length p.samples)
    (float_of_int (Array.length p.samples) /. p.elapsed);
  List.iter
    (fun k ->
      p50_metric (kind_name k ^ "_p50_ms") (Pct.sorted (lat_ms k p));
      let xs = of_kind k p in
      metric (kind_name k ^ "_rounds") "rounds/op" ~n:(Array.length xs)
        ~note:(Printf.sprintf "Table 1: %d" (expected_rounds w k))
        (Pct.mean (Array.map (fun s -> float_of_int s.rounds) xs)))
    [ `Read; `Write ];
  metric "setup_s" "s" ~n:(List.length setup_s)
    ~note:(String.concat " " (List.map (Printf.sprintf "%.3f") setup_s))
    (Pct.median (Pct.sorted (Array.of_list setup_s)));
  metric "peak_heap_mb" "MiB"
    (float_of_int (p.peak_heap_words * (Sys.word_size / 8))
    /. (1024.0 *. 1024.0))

let mean_service p = Pct.mean (Array.map (fun s -> s.service) p.samples)

let per_layer w ~reference p =
  let rts, self, rt_per_op = Trace.breakdown p.spans in
  let rts_ms = Pct.sorted (Array.map (fun d -> 1e3 *. d) rts) in
  let n_rt = Array.length rts_ms in
  let rt_p50 = pct_or0 rts_ms 50.0 in
  metric "mux.rt_p50_ms" "ms" ~n:n_rt rt_p50;
  metric "mux.rt_p99_ms" "ms" ~n:n_rt (pct_or0 rts_ms 99.0);
  let nodes = List.init clients (fun i -> w.s + i) in
  metric "mux.rt_overshoot_ms" "ms" ~n:n_rt
    ~note:
      (Printf.sprintf "nominal %.3f ms"
         (1e3 *. Rtt.nominal w.profile ~s:w.s ~tol:w.tol ~clients:nodes))
    (Rtt.overshoot w.profile ~s:w.s ~tol:w.tol ~clients:nodes
       ~rt_p50:(rt_p50 /. 1e3)
    *. 1e3);
  metric "client_core.self_us_per_op" "us" ~n:(Array.length self)
    (1e6 *. Pct.mean self);
  metric "mux.retries" "count" (float_of_int p.retries);
  metric "mux.late_replies" "count" (float_of_int p.late_replies);
  metric "mux.dropped_replies" "count" (float_of_int p.dropped);
  (* Tails are diagnostics, not gated: on [lan] they follow the host's
     scheduling stalls from run to run (p99 4.8..11.8 ms on one binary),
     and one metric list serves every workload. *)
  List.iter
    (fun k ->
      tail_metric
        ("diag." ^ kind_name k ^ "_tail_ms")
        (Pct.sorted (lat_ms k p)))
    [ `Read; `Write ];
  metric "keyspace.hot_ratio" "ratio" ~n:w.s p.hot_ratio;
  let warm = List.init w.keys (fun r -> (Ycsb.key_name r, `Read)) in
  let timed =
    Array.to_list
      (Array.map (fun s -> (Ycsb.key_name s.rank, s.kind)) p.samples)
  in
  let ks = Micro.keyspace ~warm ~timed ~rounds:(expected_rounds w) in
  let med name unit xs =
    metric name unit ~n:(Array.length xs) (pct_or0 (Pct.sorted xs) 50.0)
  in
  med "keyspace.hit_us" "us" ks.Micro.hit_us;
  med "keyspace.miss_us" "us" ks.Micro.miss_us;
  med "keyspace.demote_pass_ms" "ms" ks.Micro.demote_ms;
  (match p.online with
  | Some r ->
    metric "check_sink.peak_window" "ops" ~n:r.Check_sink.checked
      ~note:(Printf.sprintf "over %d keys" r.Check_sink.keys)
      (float_of_int r.Check_sink.peak_window);
    metric "check_sink.busy_s" "s" r.Check_sink.busy;
    metric "check_sink.ops_per_s" "ops/s" r.Check_sink.checker_ops_per_sec
  | None ->
    List.iter
      (fun (name, unit) -> metric name unit ~n:0 ~note:"checker off" 0.0)
      [
        ("check_sink.peak_window", "ops");
        ("check_sink.busy_s", "s");
        ("check_sink.ops_per_s", "ops/s");
      ]);
  let enc, dec = Micro.codec p.frames in
  metric "codec.encode_us" "us" ~n:(List.length p.frames) enc;
  metric "codec.decode_us" "us" ~n:(List.length p.frames) dec;
  let late = Pct.sorted (Array.map (fun d -> 1e3 *. d) p.late) in
  metric "gen.late_p99_ms" "ms" ~n:(Array.length late) (pct_or0 late 99.0);
  metric "gen.backlog_max" "ops" (float_of_int p.backlog_max);
  (* Process-wide counters come from the untraced reference phase:
     tracing itself allocates and burns CPU. *)
  let ops = float_of_int (max 1 (Array.length reference.samples)) in
  metric "proc.cpu_us_per_op" "us" (1e6 *. reference.cpu /. ops);
  metric "gc.minor_words_per_op" "words" (reference.minor_words /. ops);
  metric "gc.major_collections" "count" (float_of_int reference.major);
  (* An op's mean is its round trips plus its self time; against the
     untraced mean that split also gives the tracing overhead. *)
  let untraced = mean_service reference in
  let traced = Pct.mean rt_per_op +. Pct.mean self in
  metric "trace.overhead_pct" "%"
    ~note:
      (Printf.sprintf
         "mean op %.3f ms traced (round trips %.3f ms + self %.1f us) vs \
          %.3f ms untraced"
         (1e3 *. traced)
         (1e3 *. Pct.mean rt_per_op)
         (1e6 *. Pct.mean self) (1e3 *. untraced))
    (100.0 *. ((traced /. untraced) -. 1.0));
  metric "host.spin_ratio" "ratio" (p.spin_after /. p.spin_before)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let setup_reps = 3

let spans_dir = ".bench_out"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "run_bench --workload NAME --seed N --seconds S --trace 0|1";
  let usage msg =
    prerr_endline msg;
    exit 2
  in
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      usage
        (Printf.sprintf "unknown workload %S (workloads: %s)" !workload
           (String.concat ", " (List.map (fun w -> w.name) workloads)))
  in
  if !trace <> 0 && !trace <> 1 then usage "--trace is 0 or 1";
  if not (!seconds > 0.0) then usage "--seconds must be > 0";
  let seed = !seed and seconds = !seconds in
  Printf.printf "%s: %s, S=%d t=%d, %s profile, %d clients, seed %d, %.0fs\n"
    w.name (Registry.name w.register) w.s w.tol (Geo.name w.profile) clients
    seed seconds;
  let timed env =
    Fun.protect
      ~finally:(fun () -> teardown env)
      (fun () -> run_phase w ~seed ~seconds env)
  in
  let gate label p =
    Printf.printf "  %s phase: %d ops in %.3fs, host spin %.2f ms -> %.2f ms\n"
      label (Array.length p.samples) p.elapsed (1e3 *. p.spin_before)
      (1e3 *. p.spin_after);
    match violations w p with
    | [] -> ()
    | errs ->
      List.iter (fun e -> Printf.printf "  VIOLATION (%s): %s\n" label e) errs;
      print_result ~correct:false ~attempted:p.attempted ~failed:p.failed;
      exit 1
  in
  if !trace = 0 then begin
    let times = ref [] and env = ref None in
    for i = 1 to setup_reps do
      let t, e = setup w ~seed ~traced:false in
      times := t :: !times;
      if i < setup_reps then teardown e else env := Some e
    done;
    let p = timed (Option.get !env) in
    gate "untraced" p;
    end_to_end w p ~setup_s:!times;
    print_result ~correct:true ~attempted:p.attempted ~failed:p.failed
  end
  else begin
    let reference = timed (snd (setup w ~seed ~traced:false)) in
    gate "reference" reference;
    let p = timed (snd (setup w ~seed ~traced:true)) in
    gate "traced" p;
    per_layer w ~reference p;
    (try
       if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
       let path = Filename.concat spans_dir (w.name ^ ".spans.jsonl") in
       Trace.dump path p.spans;
       Printf.printf "  spans: %d written to %s\n" (List.length p.spans) path
     with Sys_error e -> Printf.printf "  spans not written: %s\n" e);
    print_result ~correct:true ~attempted:p.attempted ~failed:p.failed
  end
