(* Tests for the extension modules: staleness metrics (§7 future work),
   history serialization, the linearization witness, the adaptive
   register, the W1Rk generalization, realizability certification,
   workload generation, the partition adversary, and the exhaustive
   small-world explorer. *)

open Histories
open Protocol

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let w ~id ?(proc = 0) ~v ~inv ~resp () =
  Op.write ~id ~proc:(Op.Writer proc) ~value:v ~inv ~resp

let r ~id ?(proc = 0) ~inv ~resp ~result () =
  Op.read ~id ~proc:(Op.Reader proc) ~inv ~resp ~result

(* ------------------------------------------------------------------ *)
(* Staleness                                                            *)
(* ------------------------------------------------------------------ *)

let three_writes_then_read result =
  History.of_ops
    [
      w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
      w ~id:1 ~v:2 ~inv:2.0 ~resp:(Some 3.0) ();
      w ~id:2 ~v:3 ~inv:4.0 ~resp:(Some 5.0) ();
      r ~id:3 ~inv:6.0 ~resp:(Some 7.0) ~result:(Some result) ();
    ]

let test_staleness_fresh () =
  let h = three_writes_then_read 3 in
  check int "fresh read staleness 0" 0 (Checker.Staleness.max_staleness h);
  check bool "stale fraction 0" true (Checker.Staleness.stale_fraction h = 0.0);
  check bool "bounded by 0" true (Checker.Staleness.bounded_by h ~k:0)

let test_staleness_counts_missed_writes () =
  let h = three_writes_then_read 1 in
  check int "two writes missed" 2 (Checker.Staleness.max_staleness h);
  check bool "stale fraction 1" true (Checker.Staleness.stale_fraction h = 1.0);
  check bool "bounded by 2 but not 1" true
    (Checker.Staleness.bounded_by h ~k:2 && not (Checker.Staleness.bounded_by h ~k:1))

let test_staleness_initial_value () =
  let h = three_writes_then_read History.initial_value in
  check int "initial after 3 writes" 3 (Checker.Staleness.max_staleness h)

let test_staleness_concurrent_write_not_counted () =
  (* A write concurrent with the read is not "missed". *)
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        w ~id:1 ~proc:1 ~v:2 ~inv:2.0 ~resp:(Some 50.0) ();
        r ~id:2 ~inv:3.0 ~resp:(Some 4.0) ~result:(Some 1) ();
      ]
  in
  check int "no staleness" 0 (Checker.Staleness.max_staleness h)

let test_staleness_histogram () =
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        w ~id:1 ~v:2 ~inv:2.0 ~resp:(Some 3.0) ();
        r ~id:2 ~inv:4.0 ~resp:(Some 5.0) ~result:(Some 2) ();
        r ~id:3 ~inv:6.0 ~resp:(Some 7.0) ~result:(Some 1) ();
      ]
  in
  check
    (Alcotest.list (Alcotest.pair int int))
    "histogram" [ (0, 1); (1, 1) ]
    (Checker.Staleness.histogram h)

let test_staleness_unwritten () =
  let h = History.of_ops [ r ~id:0 ~inv:0.0 ~resp:(Some 1.0) ~result:(Some 77) () ] in
  check bool "unwritten is max_int" true
    (Checker.Staleness.max_staleness h = max_int)

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)
(* ------------------------------------------------------------------ *)

let test_serial_roundtrip () =
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.125 ~resp:(Some 1.5) ();
        w ~id:1 ~proc:1 ~v:2 ~inv:2.25 ~resp:None ();
        r ~id:2 ~inv:3.0 ~resp:(Some 4.0) ~result:(Some 1) ();
        r ~id:3 ~proc:1 ~inv:5.0 ~resp:None ~result:None ();
      ]
  in
  match Serial.of_string (Serial.to_string h) with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok h' ->
    check int "same size" (History.length h) (History.length h');
    List.iter2
      (fun (a : Op.t) (b : Op.t) ->
        check bool "op preserved" true
          (a.Op.id = b.Op.id && a.Op.proc = b.Op.proc && a.Op.kind = b.Op.kind
          && a.Op.inv = b.Op.inv && a.Op.resp = b.Op.resp
          && a.Op.result = b.Op.result))
      (History.ops h) (History.ops h')

let test_serial_comments_and_blanks () =
  let text = "# a comment\n\nw 0 w0 5 0x1p+0 0x1p+1\n" in
  match Serial.of_string text with
  | Ok h -> check int "one op" 1 (History.length h)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_serial_rejects_garbage () =
  check bool "bad line rejected" true
    (Result.is_error (Serial.of_string "nonsense here\n"));
  check bool "bad float rejected" true
    (Result.is_error (Serial.of_string "w 0 w0 5 notafloat -\n"))

let serial_roundtrip_property =
  QCheck.Test.make ~name:"serialization round-trips protocol histories" ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let env = Env.make ~seed ~s:4 ~t:1 ~w:2 ~r:2 () in
      let plans =
        [
          Runtime.write_plan ~writer:0 ~think:9.0 3;
          Runtime.write_plan ~writer:1 ~start_at:1.0 ~think:11.0 3;
          Runtime.read_plan ~reader:0 ~start_at:2.0 ~think:7.0 4;
          Runtime.read_plan ~reader:1 ~start_at:3.0 ~think:8.0 4;
        ]
      in
      let out = Runtime.run ~register:Registers.Registry.abd_mwmr ~env ~plans () in
      let h = out.Runtime.history in
      match Serial.of_string (Serial.to_string h) with
      | Error _ -> false
      | Ok h' -> Serial.to_string h = Serial.to_string h')

(* ------------------------------------------------------------------ *)
(* Linearization witness                                                *)
(* ------------------------------------------------------------------ *)

let test_linearization_simple () =
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        r ~id:1 ~inv:2.0 ~resp:(Some 3.0) ~result:(Some 1) ();
        w ~id:2 ~proc:1 ~v:2 ~inv:4.0 ~resp:(Some 5.0) ();
      ]
  in
  match Checker.Atomicity.linearization h with
  | None -> Alcotest.fail "atomic history must have a linearization"
  | Some order -> check int "all ops present" 3 (List.length order)

let test_linearization_none_when_violated () =
  let h = three_writes_then_read 1 in
  check bool "no witness for violation" true
    (Checker.Atomicity.linearization h = None)

(* The witness generator agrees with the checker and the oracle on random
   protocol histories, and its output is always spec-valid (it
   self-validates, so Some means valid by construction — we re-check the
   real-time order independently here). *)
let linearization_property =
  QCheck.Test.make ~name:"linearization exists iff atomic, and respects order"
    ~count:60
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let env = Env.make ~seed ~s:4 ~t:1 ~w:2 ~r:2 () in
      let plans =
        [
          Runtime.write_plan ~writer:0 ~think:6.0 3;
          Runtime.write_plan ~writer:1 ~start_at:1.0 ~think:8.0 3;
          Runtime.read_plan ~reader:0 ~start_at:2.0 ~think:5.0 4;
          Runtime.read_plan ~reader:1 ~start_at:3.0 ~think:7.0 4;
        ]
      in
      let out = Runtime.run ~register:Registers.Registry.fastread_w2r1 ~env ~plans () in
      let h = out.Runtime.history in
      match Checker.Atomicity.linearization h with
      | None -> not (Checker.Atomicity.is_atomic h)
      | Some order ->
        Checker.Atomicity.is_atomic h
        &&
        let rec no_inversion = function
          | [] -> true
          | a :: rest ->
            List.for_all (fun b -> not (Op.precedes b a)) rest && no_inversion rest
        in
        no_inversion order)

(* ------------------------------------------------------------------ *)
(* Adaptive register                                                    *)
(* ------------------------------------------------------------------ *)

let test_adaptive_beyond_threshold () =
  (* S=6, t=1: strict fast reads impossible at R >= 4; adaptive stays
     atomic under the very attack that breaks Algorithm 1 & 2. *)
  List.iter
    (fun rr ->
      let v =
        Workload.Threshold.attack ~register:Registers.Registry.adaptive ~s:6
          ~t:1 ~r:rr
      in
      check bool (Printf.sprintf "adaptive atomic at R=%d" rr) true
        v.Workload.Threshold.atomic)
    [ 2; 4; 6 ]

let test_adaptive_mostly_fast_when_quiet () =
  (* Sequential reads with no contention take the fast path. *)
  let env =
    Env.make ~seed:3 ~latency:(Simulation.Latency.constant 2.0) ~s:6 ~t:1 ~w:2
      ~r:2 ()
  in
  let plans =
    [
      Runtime.write_plan ~writer:0 1;
      Runtime.read_plan ~reader:0 ~start_at:100.0 ~think:20.0 5;
      Runtime.read_plan ~reader:1 ~start_at:105.0 ~think:20.0 5;
    ]
  in
  let out = Runtime.run ~register:Registers.Registry.adaptive ~env ~plans () in
  let reads = Workload.Stats.reads out.Runtime.history in
  (* All quiet reads should be one round-trip = 4.0. *)
  check bool "quiet reads are fast" true (reads.Workload.Stats.p95 <= 4.0 +. 0.001);
  check bool "atomic" true (Checker.Atomicity.is_atomic out.Runtime.history)

(* ------------------------------------------------------------------ *)
(* W1Rk generalization                                                  *)
(* ------------------------------------------------------------------ *)

let test_k_round_convictions () =
  List.iter
    (fun k ->
      List.iter
        (fun strat ->
          let finding, stats = Impossibility.K_round.run ~s:4 strat in
          check bool
            (Printf.sprintf "%s convicted" strat.Impossibility.K_round.name)
            true
            (Impossibility.W1r2_theorem.found_violation finding);
          check int "no link failures" 0 stats.Impossibility.W1r2_theorem.links_failed)
        [
          Impossibility.K_round.majority_of_last_round ~k;
          Impossibility.K_round.round_vote ~k;
          Impossibility.K_round.seeded ~k 11;
        ])
    [ 2; 3; 5 ]

let test_k_round_validation () =
  check bool "k=1 rejected" true
    (try
       ignore (Impossibility.K_round.collapse (Impossibility.K_round.round_vote ~k:1));
       false
     with Invalid_argument _ -> true)

let k_round_seeded_property =
  QCheck.Test.make ~name:"every seeded k-round strategy convicted" ~count:80
    QCheck.(pair (int_range 0 10_000) (pair (int_range 2 5) (int_range 3 6)))
    (fun (seed, (k, s)) ->
      let finding, _ =
        Impossibility.K_round.run ~s (Impossibility.K_round.seeded ~k seed)
      in
      Impossibility.W1r2_theorem.found_violation finding)

(* ------------------------------------------------------------------ *)
(* Realizability                                                        *)
(* ------------------------------------------------------------------ *)

let test_realizability_chain_executions () =
  for s = 3 to 5 do
    for i1 = 1 to s do
      let chain =
        Impossibility.Chain_beta.build ~s ~stem_swapped:(i1 - 1) ~critical:(i1 - 1)
      in
      List.iter
        (fun (label, e) ->
          check bool
            (Printf.sprintf "realizable: %s (S=%d,i1=%d)" label s i1)
            true
            (Impossibility.Realizability.realizable ~t:1 e))
        (Impossibility.Zigzag.all_executions ~chain)
    done
  done

let test_realizability_catches_budget () =
  (* A round skipping 2 of 3 servers cannot complete with t = 1. *)
  let e =
    Impossibility.Exec_model.make ~label:"bad"
      [|
        [ Impossibility.Token.w1; Impossibility.Token.w2 ];
        [ Impossibility.Token.w1; Impossibility.Token.w2 ];
        [ Impossibility.Token.w1; Impossibility.Token.w2;
          Impossibility.Token.r ~reader:1 ~round:1 ];
      |]
  in
  let report = Impossibility.Realizability.check ~t:1 e in
  check bool "budget violation detected" false
    report.Impossibility.Realizability.skip_budget_ok;
  check int "max skips" 2 report.Impossibility.Realizability.max_skips

let test_realizability_catches_read_before_write () =
  let e =
    Impossibility.Exec_model.make ~label:"bad"
      [| [ Impossibility.Token.r ~reader:1 ~round:1; Impossibility.Token.w1 ] |]
  in
  let report = Impossibility.Realizability.check ~t:0 e in
  check bool "writes-first violated" false
    report.Impossibility.Realizability.writes_first

(* ------------------------------------------------------------------ *)
(* Generator                                                            *)
(* ------------------------------------------------------------------ *)

let test_generator_shapes () =
  let spec = { Workload.Generator.default with Workload.Generator.seed = 9 } in
  let plans = Workload.Generator.plans spec in
  check int "one plan per client" 4 (List.length plans);
  (* Same seed, same plans. *)
  check bool "deterministic" true (plans = Workload.Generator.plans spec);
  check bool "different seed differs" true
    (plans <> Workload.Generator.plans { spec with Workload.Generator.seed = 10 })

let test_generator_runs_atomic () =
  for seed = 1 to 5 do
    let spec = { Workload.Generator.default with Workload.Generator.seed = seed } in
    let env = Env.make ~seed ~s:5 ~t:1 ~w:2 ~r:2 () in
    let out =
      Runtime.run ~register:Registers.Registry.abd_mwmr ~env
        ~plans:(Workload.Generator.plans spec) ()
    in
    check bool "atomic" true (Checker.Atomicity.is_atomic out.Runtime.history);
    check bool "well-formed" true
      (History.well_formed out.Runtime.history = Ok ())
  done

let test_generator_closed_loop () =
  let spec = Workload.Generator.default in
  let plans = Workload.Generator.closed_loop spec ~duration:200.0 in
  let total_steps =
    List.fold_left (fun acc p -> acc + List.length p.Runtime.steps) 0 plans
  in
  check bool "scales with duration" true (total_steps > 20)

(* ------------------------------------------------------------------ *)
(* Partition adversary                                                  *)
(* ------------------------------------------------------------------ *)

let test_partition_heals () =
  (* Cut servers {3,4} off from everyone during [10, 200); with quorum 4
     of 5 unreachable... quorum 4 needs 4 of the 3 reachable servers, so
     ops stall during the partition and finish after it heals. *)
  let env =
    Env.make ~seed:4 ~latency:(Simulation.Latency.constant 1.0) ~s:5 ~t:1 ~w:2
      ~r:2 ()
  in
  let groups node = if node = 3 || node = 4 then 1 else 0 in
  let adversary =
    Workload.Adversary.apply
      (Workload.Adversary.partition ~groups ~from_time:10.0 ~until:200.0)
  in
  let plans = [ Runtime.write_plan ~writer:0 ~start_at:20.0 1 ] in
  let out = Runtime.run ~register:Registers.Registry.abd_mwmr ~env ~plans ~adversary () in
  match History.ops out.Runtime.history with
  | [ op ] ->
    check bool "completed after heal" true
      (match op.Op.resp with Some f -> f >= 200.0 | None -> false);
    check bool "atomic" true (Checker.Atomicity.is_atomic out.Runtime.history)
  | _ -> Alcotest.fail "expected one op"

(* ------------------------------------------------------------------ *)
(* Exhaustive explorer                                                  *)
(* ------------------------------------------------------------------ *)

let test_exhaustive_correct_protocols_clean () =
  List.iter
    (fun register ->
      let o =
        Workload.Exhaustive.explore ~register ~s:3 ~w:2 ~r:1 ()
      in
      check bool "exhaustive" true o.Workload.Exhaustive.exhaustive;
      check int
        (Registers.Registry.name register ^ ": no violations")
        0 o.Workload.Exhaustive.violations)
    [ Registers.Registry.abd_mwmr; Registers.Registry.adaptive ]

let test_exhaustive_finds_naive_counterexample () =
  let o =
    Workload.Exhaustive.explore ~register:Registers.Registry.naive_w1r2 ~s:3
      ~w:2 ~r:1 ()
  in
  check bool "violations found" true (o.Workload.Exhaustive.violations > 0);
  match o.Workload.Exhaustive.first with
  | Some v ->
    check Alcotest.string "stale read witness" "stale-read"
      (Checker.Witness.short v.Workload.Exhaustive.witness)
  | None -> Alcotest.fail "expected a first counterexample"

let test_exhaustive_truncation () =
  let o =
    Workload.Exhaustive.explore ~max_runs:100
      ~register:Registers.Registry.abd_mwmr ~s:3 ~w:2 ~r:1 ()
  in
  check bool "truncated" false o.Workload.Exhaustive.exhaustive;
  check int "capped" 100 o.Workload.Exhaustive.runs

(* ------------------------------------------------------------------ *)
(* Zone (interval) check: direct unit cases for {!Checker.Atomicity}
   (the property suites cross-validate it on random histories).       *)
(* ------------------------------------------------------------------ *)

let test_interval_accepts_sequential () =
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        r ~id:1 ~inv:2.0 ~resp:(Some 3.0) ~result:(Some 1) ();
      ]
  in
  check bool "atomic" true (Checker.Atomicity.is_atomic h)

let test_interval_rejects_stale () =
  let h = three_writes_then_read 1 in
  check bool "stale rejected" false (Checker.Atomicity.is_atomic h);
  match Checker.Atomicity.check h with
  | Error wit ->
    check bool "cycle or stale witness" true
      (List.mem (Checker.Witness.short wit) [ "ordering-cycle"; "stale-read" ])
  | Ok () -> Alcotest.fail "expected error"

let test_interval_rejects_inversion () =
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        w ~id:1 ~proc:1 ~v:2 ~inv:2.0 ~resp:(Some 20.0) ();
        r ~id:2 ~proc:0 ~inv:3.0 ~resp:(Some 4.0) ~result:(Some 2) ();
        r ~id:3 ~proc:1 ~inv:5.0 ~resp:(Some 6.0) ~result:(Some 1) ();
      ]
  in
  check bool "new/old inversion rejected" false (Checker.Atomicity.is_atomic h)

let test_interval_pending_write () =
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:None ();
        r ~id:1 ~inv:5.0 ~resp:(Some 6.0) ~result:(Some 1) ();
      ]
  in
  check bool "pending write readable" true (Checker.Atomicity.is_atomic h)

(* ------------------------------------------------------------------ *)
(* Theorem 1 narrated report                                            *)
(* ------------------------------------------------------------------ *)

let test_report_narrates_walk () =
  let text =
    Impossibility.Report.explain ~s:4 Impossibility.Strategy.majority_last
  in
  let contains needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check bool "mentions critical server" true (contains "critical server");
  check bool "mentions zigzag" true (contains "zigzag");
  check bool "ends with a verdict" true (contains "Verdict");
  check bool "contains the witness" true (contains "read disagreement")

let test_report_anchor_case () =
  let bad = { Impossibility.Strategy.name = "always-1"; decide = (fun _ -> 1) } in
  let text = Impossibility.Report.explain ~s:4 bad in
  let contains needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check bool "anchor narrated" true (contains "SEQUENTIAL ANCHOR VIOLATION")

(* ------------------------------------------------------------------ *)
(* W3R1: write rounds don't matter (§5.1)                               *)
(* ------------------------------------------------------------------ *)

let test_w3r1_write_is_three_rounds () =
  let env =
    Env.make ~seed:2 ~latency:(Simulation.Latency.constant 2.0) ~s:5 ~t:1 ~w:1
      ~r:1 ()
  in
  let out =
    Runtime.run ~register:Registers.Registry.slow_write_w3r1 ~env
      ~plans:[ Runtime.write_plan ~writer:0 1; Runtime.read_plan ~reader:0 ~start_at:100.0 1 ]
      ()
  in
  let writes = Workload.Stats.writes out.Runtime.history in
  let reads = Workload.Stats.reads out.Runtime.history in
  check bool "write = 3 RTTs" true (abs_float (writes.Workload.Stats.mean -. 12.0) < 0.001);
  check bool "read = 1 RTT" true (abs_float (reads.Workload.Stats.mean -. 4.0) < 0.001)

let test_w3r1_atomic_safe_regime () =
  for seed = 1 to 5 do
    let env =
      Env.make ~seed ~latency:(Simulation.Latency.uniform ~lo:1.0 ~hi:8.0) ~s:6
        ~t:1 ~w:2 ~r:2 ()
    in
    let plans =
      [
        Runtime.write_plan ~writer:0 ~think:12.0 3;
        Runtime.write_plan ~writer:1 ~start_at:2.0 ~think:15.0 3;
        Runtime.read_plan ~reader:0 ~start_at:1.0 ~think:9.0 5;
        Runtime.read_plan ~reader:1 ~start_at:3.0 ~think:11.0 5;
      ]
    in
    let out = Runtime.run ~register:Registers.Registry.slow_write_w3r1 ~env ~plans () in
    check bool "atomic" true (Checker.Atomicity.is_atomic out.Runtime.history)
  done

(* ------------------------------------------------------------------ *)
(* Hunter                                                               *)
(* ------------------------------------------------------------------ *)

let test_hunter_finds_naive_violation () =
  let found, _runs =
    Workload.Hunter.hunt ~seeds_per_shape:20
      ~register:Registers.Registry.naive_w1r2 ~s:5 ~t:1 ~w:2 ~r:2 ()
  in
  match found with
  | Some f ->
    check bool "witness attached" true
      (String.length (Checker.Witness.short f.Workload.Hunter.witness) > 0)
  | None -> Alcotest.fail "hunter must break the naive fast write"

let test_hunter_clean_on_correct_protocol () =
  let found, runs =
    Workload.Hunter.hunt ~seeds_per_shape:15
      ~register:Registers.Registry.abd_mwmr ~s:5 ~t:1 ~w:2 ~r:2 ()
  in
  check bool "no violation" true (found = None);
  check bool "ran the budget" true (runs > 40)

let test_hunter_starvation_shape () =
  (* The starvation shape alone breaks strict W2R1 past the threshold. *)
  let found, _ =
    Workload.Hunter.hunt ~shapes:[ Workload.Hunter.Starvation ]
      ~register:Registers.Registry.fastread_w2r1 ~s:6 ~t:1 ~w:2 ~r:4 ()
  in
  check bool "starvation finds it" true (found <> None)

(* ------------------------------------------------------------------ *)
(* Adaptive internals                                                   *)
(* ------------------------------------------------------------------ *)

let test_adaptive_safe_degrees () =
  check (Alcotest.list int) "S=6 t=1" [ 1; 2; 3; 4 ]
    (Registers.Adaptive_read.safe_degrees ~s:6 ~t:1);
  check (Alcotest.list int) "S=8 t=2" [ 1; 2 ]
    (Registers.Adaptive_read.safe_degrees ~s:8 ~t:2);
  check (Alcotest.list int) "S=3 t=1" [ 1 ]
    (Registers.Adaptive_read.safe_degrees ~s:3 ~t:1)

let test_adaptive_fast_fraction () =
  let env =
    Env.make ~seed:3 ~latency:(Simulation.Latency.constant 2.0) ~s:6 ~t:1 ~w:1
      ~r:1 ()
  in
  let cluster = Registers.Adaptive_read.create env in
  check bool "empty fraction is 1" true
    (Registers.Adaptive_read.fast_fraction cluster = 1.0);
  let engine = env.Env.engine in
  Registers.Adaptive_read.write cluster ~writer:0 ~value:5 ~k:(fun _ ->
      Registers.Adaptive_read.read cluster ~reader:0 ~k:(fun v _ ->
          check int "reads the write" 5 v));
  Simulation.Engine.run engine;
  check bool "quiet read was fast" true
    (Registers.Adaptive_read.fast_fraction cluster = 1.0)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "extensions"
    [
      ( "staleness",
        [
          tc "fresh read" test_staleness_fresh;
          tc "missed writes counted" test_staleness_counts_missed_writes;
          tc "initial value" test_staleness_initial_value;
          tc "concurrent not counted" test_staleness_concurrent_write_not_counted;
          tc "histogram" test_staleness_histogram;
          tc "unwritten" test_staleness_unwritten;
        ] );
      ( "serial",
        [
          tc "round trip" test_serial_roundtrip;
          tc "comments and blanks" test_serial_comments_and_blanks;
          tc "rejects garbage" test_serial_rejects_garbage;
          QCheck_alcotest.to_alcotest serial_roundtrip_property;
        ] );
      ( "linearization",
        [
          tc "simple" test_linearization_simple;
          tc "none on violation" test_linearization_none_when_violated;
          QCheck_alcotest.to_alcotest linearization_property;
        ] );
      ( "adaptive",
        [
          tc "beyond threshold" test_adaptive_beyond_threshold;
          tc "mostly fast when quiet" test_adaptive_mostly_fast_when_quiet;
        ] );
      ( "k-round",
        [
          tc "convictions" test_k_round_convictions;
          tc "validation" test_k_round_validation;
          QCheck_alcotest.to_alcotest k_round_seeded_property;
        ] );
      ( "realizability",
        [
          tc "chain executions realizable" test_realizability_chain_executions;
          tc "budget violations caught" test_realizability_catches_budget;
          tc "read-before-write caught" test_realizability_catches_read_before_write;
        ] );
      ( "generator",
        [
          tc "shapes" test_generator_shapes;
          tc "runs atomic" test_generator_runs_atomic;
          tc "closed loop" test_generator_closed_loop;
        ] );
      ("partition", [ tc "heals" test_partition_heals ]);
      ( "exhaustive",
        [
          tc "correct protocols clean" test_exhaustive_correct_protocols_clean;
          tc "naive counterexample" test_exhaustive_finds_naive_counterexample;
          tc "truncation" test_exhaustive_truncation;
        ] );
      ( "interval-checker",
        [
          tc "accepts sequential" test_interval_accepts_sequential;
          tc "rejects stale" test_interval_rejects_stale;
          tc "rejects inversion" test_interval_rejects_inversion;
          tc "pending write" test_interval_pending_write;
        ] );
      ( "report",
        [
          tc "narrates walk" test_report_narrates_walk;
          tc "anchor case" test_report_anchor_case;
        ] );
      ( "w3r1",
        [
          tc "three-round writes, fast reads" test_w3r1_write_is_three_rounds;
          tc "atomic in safe regime" test_w3r1_atomic_safe_regime;
        ] );
      ( "hunter",
        [
          tc "finds naive violation" test_hunter_finds_naive_violation;
          tc "clean on correct protocol" test_hunter_clean_on_correct_protocol;
          tc "starvation shape" test_hunter_starvation_shape;
        ] );
      ( "adaptive-internals",
        [
          tc "safe degrees" test_adaptive_safe_degrees;
          tc "fast fraction" test_adaptive_fast_fraction;
        ] );
    ]
