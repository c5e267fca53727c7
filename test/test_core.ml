(* Tests for the public facade. *)

let check = Alcotest.check
let bool = Alcotest.bool

let test_version () =
  check bool "version string" true (String.length Mwregister.version > 0)

let test_run_and_check_atomic () =
  let v =
    Mwregister.run_and_check ~register:Mwregister.Registry.fastread_w2r1 ~s:5
      ~t:1 ~w:2 ~r:2
      [
        Mwregister.Runtime.write_plan ~writer:0 ~think:10.0 3;
        Mwregister.Runtime.write_plan ~writer:1 ~start_at:2.0 ~think:12.0 3;
        Mwregister.Runtime.read_plan ~reader:0 ~start_at:1.0 ~think:8.0 5;
        Mwregister.Runtime.read_plan ~reader:1 ~start_at:3.0 ~think:9.0 5;
      ]
  in
  check bool "atomic" true (v.Mwregister.consistency = Mwregister.Consistency.Atomic);
  check bool "no witness" true (v.Mwregister.atomicity_witness = None);
  check bool "no MWA failures" true (v.Mwregister.mwa_failures = []);
  check bool "wait-free" true v.Mwregister.wait_free

let test_run_and_check_violation () =
  let v =
    Mwregister.run_and_check ~register:Mwregister.Registry.naive_w1r2 ~s:5 ~t:1
      ~w:2 ~r:2
      [
        Mwregister.Runtime.write_plan ~writer:1 ~start_at:0.0 1;
        Mwregister.Runtime.write_plan ~writer:0 ~start_at:100.0 1;
        Mwregister.Runtime.read_plan ~reader:0 ~start_at:200.0 1;
      ]
  in
  check bool "not atomic" true
    (v.Mwregister.consistency <> Mwregister.Consistency.Atomic);
  check bool "witness produced" true (v.Mwregister.atomicity_witness <> None)

let test_facade_reaches_impossibility () =
  let finding, _ =
    Mwregister.Impossible.W1r2_theorem.run ~s:4
      Mwregister.Impossible.Strategy.majority_last
  in
  check bool "theorem reachable through facade" true
    (Mwregister.Impossible.W1r2_theorem.found_violation finding)

let test_facade_bounds () =
  check bool "Table 1 reachable" false
    (Mwregister.Bounds.w1r2_possible ~s:9 ~t:1 ~w:2 ~r:2)

let test_facade_extensions_reachable () =
  (* Every extension module is re-exported through the facade. *)
  check bool "Online" true
    (Mwregister.Online.finalize (Mwregister.Online.create ()) = Ok ());
  check bool "Staleness" true
    (Mwregister.Staleness.max_staleness (Mwregister.History.of_ops []) = 0);
  check bool "Serial" true
    (Mwregister.Serial.of_string "" = Ok (Mwregister.History.of_ops []));
  (let found, _ =
     Mwregister.Hunter.hunt ~shapes:[ Mwregister.Hunter.Inversion ]
       ~register:Mwregister.Registry.naive_w1r2 ~s:5 ~t:1 ~w:2 ~r:2 ()
   in
   check bool "Hunter" true (found <> None));
  check bool "Report" true
    (String.length
       (Mwregister.Impossible.Report.explain ~s:3
          Mwregister.Impossible.Strategy.majority_last)
    > 100);
  check bool "K_round" true
    (Mwregister.Impossible.W1r2_theorem.found_violation
       (fst
          (Mwregister.Impossible.K_round.run ~s:3
             (Mwregister.Impossible.K_round.round_vote ~k:3))));
  check bool "Generator" true
    (List.length (Mwregister.Generator.plans Mwregister.Generator.default) = 4)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core"
    [
      ( "facade",
        [
          tc "version" test_version;
          tc "run_and_check atomic" test_run_and_check_atomic;
          tc "run_and_check violation" test_run_and_check_violation;
          tc "impossibility reachable" test_facade_reaches_impossibility;
          tc "bounds reachable" test_facade_bounds;
          tc "extensions reachable" test_facade_extensions_reachable;
        ] );
    ]
