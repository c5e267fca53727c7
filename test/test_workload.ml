(* Tests for statistics, adversaries, and the fast-read threshold
   experiment (Fig. 9). *)

open Protocol
open Workload

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

(* The histogram trades exact percentiles for constant memory; its
   advertised contract is count/sum/min/max exact and percentiles
   within the bin's relative error of the exact order statistic. *)
let hist_of lats =
  let h = Stats.Hist.create () in
  List.iter (Stats.Hist.add h) lats;
  h

let rel_close a b =
  (* half bin-width each side: 10^(1/64) covers midpoint-vs-edge *)
  a = b || abs_float (a -. b) <= 0.037 *. Float.max (abs_float a) (abs_float b)

let check_hist_close name lats =
  let exact = Stats.of_latencies lats in
  let s = Stats.Hist.summary (hist_of lats) in
  check int (name ^ ": count") exact.Stats.count s.Stats.count;
  check bool (name ^ ": min") true (s.Stats.min = exact.Stats.min);
  check bool (name ^ ": max") true (s.Stats.max = exact.Stats.max);
  check bool (name ^ ": mean") true (rel_close s.Stats.mean exact.Stats.mean);
  check bool (name ^ ": p50") true (rel_close s.Stats.p50 exact.Stats.p50);
  check bool (name ^ ": p95") true (rel_close s.Stats.p95 exact.Stats.p95);
  check bool (name ^ ": p99") true (rel_close s.Stats.p99 exact.Stats.p99)

let test_hist_matches_exact () =
  check_hist_close "uniform ms" (List.init 1000 (fun i -> 0.0001 *. float_of_int (i + 1)));
  check_hist_close "singleton" [ 0.0042 ];
  (* heavy tail spanning five decades *)
  check_hist_close "decades"
    (List.init 500 (fun i -> 1e-5 *. (1.2 ** float_of_int (i mod 60))));
  check int "empty count" 0 (Stats.Hist.summary (Stats.Hist.create ())).Stats.count

let test_hist_out_of_range () =
  (* Below-range and above-range samples land in the edge bins but
     keep min/max exact. *)
  let s = Stats.Hist.summary (hist_of [ 1e-9; 5e-9; 2e4 ]) in
  check int "count" 3 s.Stats.count;
  check bool "min exact" true (s.Stats.min = 1e-9);
  check bool "max exact" true (s.Stats.max = 2e4);
  check bool "p50 clamped into range" true
    (s.Stats.p50 >= 1e-9 && s.Stats.p50 <= 2e4)

let test_hist_merge () =
  let a = hist_of (List.init 400 (fun i -> 0.001 *. float_of_int (i + 1))) in
  let b = hist_of (List.init 600 (fun i -> 0.001 *. float_of_int (i + 401))) in
  Stats.Hist.merge ~into:a b;
  let whole = List.init 1000 (fun i -> 0.001 *. float_of_int (i + 1)) in
  let exact = Stats.of_latencies whole in
  let s = Stats.Hist.summary a in
  check int "merged count" 1000 (Stats.Hist.count a);
  check bool "merged min/max" true
    (s.Stats.min = exact.Stats.min && s.Stats.max = exact.Stats.max);
  check bool "merged p95" true (rel_close s.Stats.p95 exact.Stats.p95)

let lat_list_arb =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map string_of_float l))
    QCheck.Gen.(
      list_size (1 -- 200)
        (map (fun f -> 1e-6 +. (f *. 10.0)) (float_bound_exclusive 1.0)))

let hist_summary_close_prop =
  QCheck.Test.make ~count:500 ~name:"hist percentiles track exact stats"
    lat_list_arb
    (fun lats ->
      let exact = Stats.of_latencies lats in
      let s = Stats.Hist.summary (hist_of lats) in
      s.Stats.count = exact.Stats.count
      && s.Stats.min = exact.Stats.min
      && s.Stats.max = exact.Stats.max
      && rel_close s.Stats.p50 exact.Stats.p50
      && rel_close s.Stats.p95 exact.Stats.p95
      && rel_close s.Stats.p99 exact.Stats.p99)

let test_stats_empty () =
  let s = Stats.of_latencies [] in
  check int "count" 0 s.Stats.count

let test_stats_percentiles () =
  let s = Stats.of_latencies (List.init 100 (fun i -> float_of_int (i + 1))) in
  check int "count" 100 s.Stats.count;
  check bool "mean" true (abs_float (s.Stats.mean -. 50.5) < 0.01);
  check bool "p50" true (s.Stats.p50 = 50.0);
  check bool "p95" true (s.Stats.p95 = 95.0);
  check bool "p99" true (s.Stats.p99 = 99.0);
  check bool "min/max" true (s.Stats.min = 1.0 && s.Stats.max = 100.0)

let test_stats_singleton () =
  let s = Stats.of_latencies [ 7.0 ] in
  check bool "all seven" true
    (s.Stats.mean = 7.0 && s.Stats.p50 = 7.0 && s.Stats.p99 = 7.0)

let test_stats_unsorted_input () =
  (* of_latencies must sort; history traversal order is arbitrary. *)
  let shuffled = [ 30.0; 10.0; 50.0; 20.0; 40.0 ] in
  let s = Stats.of_latencies shuffled in
  check bool "p50 is the median" true (s.Stats.p50 = 30.0);
  check bool "min/max" true (s.Stats.min = 10.0 && s.Stats.max = 50.0)

let test_stats_small_n_tail () =
  (* With few samples the tail percentiles collapse onto the max, never
     past it. *)
  let s = Stats.of_latencies [ 1.0; 2.0 ] in
  check bool "p95 = max" true (s.Stats.p95 = 2.0);
  check bool "p99 = max" true (s.Stats.p99 = 2.0);
  check bool "p50 = first" true (s.Stats.p50 = 1.0)

let test_stats_from_history () =
  let env = Env.make ~seed:1 ~latency:(Simulation.Latency.constant 2.0) ~s:3 ~t:1 ~w:1 ~r:1 () in
  let plans =
    [ Runtime.write_plan ~writer:0 ~think:50.0 3;
      Runtime.read_plan ~reader:0 ~start_at:200.0 ~think:50.0 3 ]
  in
  let out = Runtime.run ~register:Registers.Registry.abd_mwmr ~env ~plans () in
  let writes = Stats.writes out.Runtime.history in
  let reads = Stats.reads out.Runtime.history in
  check int "3 writes" 3 writes.Stats.count;
  check int "3 reads" 3 reads.Stats.count;
  (* Constant latency 2.0: every two-round op takes exactly 8. *)
  check bool "write latency = 2 RTTs" true (abs_float (writes.Stats.mean -. 8.0) < 0.001);
  check bool "read latency = 2 RTTs" true (abs_float (reads.Stats.mean -. 8.0) < 0.001)

let test_one_round_latency_halved () =
  (* The paper's motivation measured: fast reads take one RTT. *)
  let env = Env.make ~seed:1 ~latency:(Simulation.Latency.constant 2.0) ~s:6 ~t:1 ~w:1 ~r:1 () in
  let plans =
    [ Runtime.write_plan ~writer:0 1;
      Runtime.read_plan ~reader:0 ~start_at:100.0 ~think:10.0 4 ]
  in
  let out = Runtime.run ~register:Registers.Registry.fastread_w2r1 ~env ~plans () in
  let reads = Stats.reads out.Runtime.history in
  check bool "fast read = 1 RTT" true (abs_float (reads.Stats.mean -. 4.0) < 0.001)

(* ------------------------------------------------------------------ *)
(* Adversaries                                                          *)
(* ------------------------------------------------------------------ *)

let run_with ?(s = 5) ?(t = 1) ?(w = 2) ?(r = 2) ?(seed = 3) adversary plans =
  let env = Env.make ~seed ~s ~t ~w ~r () in
  Runtime.run ~register:Registers.Registry.abd_mwmr ~env ~plans
    ~adversary:(Adversary.apply adversary) ()

let standard_plans =
  [ Runtime.write_plan ~writer:0 ~think:10.0 4;
    Runtime.write_plan ~writer:1 ~start_at:2.0 ~think:12.0 4;
    Runtime.read_plan ~reader:0 ~start_at:1.0 ~think:8.0 6;
    Runtime.read_plan ~reader:1 ~start_at:3.0 ~think:9.0 6 ]

let all_complete out =
  List.for_all Histories.Op.is_complete (Histories.History.ops out.Runtime.history)

let test_adversary_none () =
  let out = run_with Adversary.none standard_plans in
  check bool "completes" true (all_complete out);
  check bool "atomic" true (Checker.Atomicity.is_atomic out.Runtime.history)

let test_adversary_crash_within_budget () =
  let out = run_with (Adversary.crash_at [ (5.0, 0) ]) standard_plans in
  check bool "wait-free despite crash" true (all_complete out);
  check bool "atomic" true (Checker.Atomicity.is_atomic out.Runtime.history)

let test_adversary_crash_random () =
  let out = run_with (Adversary.crash_random ~seed:9 ~t:1 ~at:5.0 ~s:5) standard_plans in
  check bool "wait-free" true (all_complete out)

let test_adversary_compose () =
  let adv =
    Adversary.compose
      [ Adversary.crash_at [ (5.0, 0) ];
        Adversary.delay_route ~delay:30.0 ~src:5 ~dst:1 ]
  in
  let out = run_with adv standard_plans in
  check bool "composed adversary survivable" true (all_complete out);
  check bool "still atomic" true (Checker.Atomicity.is_atomic out.Runtime.history)

let test_adversary_hold_route () =
  (* Holding one client->server link is within the t=1 budget. *)
  let out = run_with (Adversary.hold_route ~src:5 ~dst:0) standard_plans in
  check bool "completes" true (all_complete out);
  check bool "atomic" true (Checker.Atomicity.is_atomic out.Runtime.history)

let test_random_skips_safe () =
  (* Random within-budget skips never break a correct protocol. *)
  let topology = Protocol.Topology.make ~servers:5 ~writers:2 ~readers:2 in
  for seed = 1 to 8 do
    let adv = Adversary.random_skips ~seed ~topology ~t_budget:1 ~window:25.0 in
    let out = run_with ~seed adv standard_plans in
    check bool (Printf.sprintf "wait-free (seed %d)" seed) true (all_complete out);
    check bool (Printf.sprintf "atomic (seed %d)" seed) true
      (Checker.Atomicity.is_atomic out.Runtime.history)
  done

(* ------------------------------------------------------------------ *)
(* Threshold (Fig. 9)                                                   *)
(* ------------------------------------------------------------------ *)

let test_threshold_boundary_s6_t1 () =
  (* S=6, t=1: fast reads possible iff R < 4. *)
  List.iter
    (fun v ->
      check bool (Format.asprintf "%a" Threshold.pp_verdict v) true
        (Threshold.boundary_matches v))
    (Threshold.sweep ~register:Registers.Registry.fastread_w2r1 ~s:6 ~t:1 ~r_max:7)

let test_threshold_boundary_t2 () =
  List.iter
    (fun (s, t) ->
      List.iter
        (fun v ->
          check bool (Format.asprintf "%a" Threshold.pp_verdict v) true
            (Threshold.boundary_matches v))
        (Threshold.sweep ~register:Registers.Registry.fastread_w2r1 ~s ~t ~r_max:5))
    [ (8, 2); (9, 2); (12, 3) ]

let test_threshold_violation_is_new_old_inversion () =
  let v = Threshold.attack ~register:Registers.Registry.fastread_w2r1 ~s:6 ~t:1 ~r:4 in
  check bool "violated" false v.Threshold.atomic;
  check bool "MWA4 named" true (v.Threshold.mwa_failure = Some "MWA4")

let test_threshold_write_rounds_irrelevant () =
  (* §5.1: the fast-read bound is independent of the write's round count —
     the three-round-write register has exactly the same boundary. *)
  List.iter
    (fun v ->
      check bool (Format.asprintf "W3R1 %a" Threshold.pp_verdict v) true
        (Threshold.boundary_matches v))
    (Threshold.sweep ~register:Registers.Registry.slow_write_w3r1 ~s:6 ~t:1
       ~r_max:6)

let test_threshold_slow_read_immune () =
  (* The same adversary cannot break the W2R2 register at any R: its
     two-round read writes back before returning. *)
  List.iter
    (fun v ->
      check bool
        (Format.asprintf "LS97 immune: %a" Threshold.pp_verdict v)
        true v.Threshold.atomic)
    (Threshold.sweep ~register:Registers.Registry.abd_mwmr ~s:6 ~t:1 ~r_max:7)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "workload"
    [
      ( "stats",
        [
          tc "empty" test_stats_empty;
          tc "percentiles" test_stats_percentiles;
          tc "singleton" test_stats_singleton;
          tc "unsorted input" test_stats_unsorted_input;
          tc "small-n tail" test_stats_small_n_tail;
          tc "from history" test_stats_from_history;
          tc "fast read is one RTT" test_one_round_latency_halved;
          tc "histogram matches exact stats" test_hist_matches_exact;
          tc "histogram edge bins" test_hist_out_of_range;
          tc "histogram merge" test_hist_merge;
          QCheck_alcotest.to_alcotest hist_summary_close_prop;
        ] );
      ( "adversary",
        [
          tc "none" test_adversary_none;
          tc "crash within budget" test_adversary_crash_within_budget;
          tc "crash random" test_adversary_crash_random;
          tc "compose" test_adversary_compose;
          tc "hold route" test_adversary_hold_route;
          tc "random skips safe" test_random_skips_safe;
        ] );
      ( "threshold",
        [
          tc "boundary S=6 t=1" test_threshold_boundary_s6_t1;
          tc "boundary t=2,3" test_threshold_boundary_t2;
          tc "violation is MWA4" test_threshold_violation_is_new_old_inversion;
          tc "write rounds irrelevant (s5.1)" test_threshold_write_rounds_irrelevant;
          tc "slow read immune" test_threshold_slow_read_immune;
        ] );
    ]
