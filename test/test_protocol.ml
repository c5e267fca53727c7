(* Tests for the client–server round-trip framework (§2.2). *)

open Protocol
open Simulation

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Topology                                                             *)
(* ------------------------------------------------------------------ *)

let topo = Topology.make ~servers:3 ~writers:2 ~readers:2

let test_topology_layout () =
  check int "node count" 7 (Topology.node_count topo);
  check int "server 1" 1 (Topology.server_node topo 1);
  check int "writer 0" 3 (Topology.writer_node topo 0);
  check int "reader 1" 6 (Topology.reader_node topo 1);
  check bool "is_server" true (Topology.is_server topo 2);
  check bool "is_client" true (Topology.is_client topo 4);
  check bool "not both" false (Topology.is_client topo 0)

let test_topology_proc_of_node () =
  check bool "server none" true (Topology.proc_of_node topo 0 = None);
  check bool "writer" true
    (Topology.proc_of_node topo 4 = Some (Histories.Op.Writer 1));
  check bool "reader" true
    (Topology.proc_of_node topo 5 = Some (Histories.Op.Reader 0))

let test_topology_forbidden () =
  check bool "server-server" true (Topology.forbidden topo ~src:0 ~dst:1);
  check bool "client-client" true (Topology.forbidden topo ~src:3 ~dst:5);
  check bool "client-server ok" false (Topology.forbidden topo ~src:3 ~dst:0);
  check bool "server-client ok" false (Topology.forbidden topo ~src:0 ~dst:3)

let test_topology_validation () =
  check bool "needs 2 servers" true
    (try ignore (Topology.make ~servers:1 ~writers:1 ~readers:1); false
     with Invalid_argument _ -> true);
  check bool "server_node range" true
    (try ignore (Topology.server_node topo 5); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Round_trip + Server                                                  *)
(* ------------------------------------------------------------------ *)

(* A toy echo protocol: request is an int, reply is the server id * 100
   + the request. *)
let make_rig ?(latency = Latency.constant 1.0) ~servers ~quorum () =
  let e = Engine.create () in
  let net = Network.create e ~latency in
  for srv = 0 to servers - 1 do
    Server.attach ~net ~node:srv ~handler:(fun ~client:_ req -> (srv * 100) + req)
  done;
  let rt =
    Round_trip.create ~net ~node:servers
      ~servers:(Array.init servers (fun i -> i))
      ~quorum
  in
  (e, net, rt)

let test_round_trip_completes_at_quorum () =
  let e, _, rt = make_rig ~servers:5 ~quorum:4 () in
  let got = ref None in
  Round_trip.exec rt 7 (fun replies -> got := Some replies);
  Engine.run e;
  (match !got with
  | None -> Alcotest.fail "round trip never completed"
  | Some replies ->
    check int "exactly quorum replies" 4 (List.length replies);
    List.iter
      (fun (srv, rep) -> check int "echoed" ((srv * 100) + 7) rep)
      replies);
  check int "started" 1 (Round_trip.rounds_started rt);
  check int "completed" 1 (Round_trip.rounds_completed rt);
  check int "one late reply" 1 (Round_trip.late_replies rt)

let test_round_trip_fires_once () =
  let e, _, rt = make_rig ~servers:3 ~quorum:2 () in
  let fires = ref 0 in
  Round_trip.exec rt 1 (fun _ -> incr fires);
  Engine.run e;
  check int "fires once" 1 !fires

let test_round_trip_sequential_rounds () =
  let e, _, rt = make_rig ~servers:3 ~quorum:3 () in
  let log = ref [] in
  Round_trip.exec rt 1 (fun _ ->
      log := "first" :: !log;
      Round_trip.exec rt 2 (fun _ -> log := "second" :: !log));
  Engine.run e;
  check (Alcotest.list Alcotest.string) "chained rounds" [ "first"; "second" ]
    (List.rev !log)

let test_round_trip_skipping () =
  let e, _, rt = make_rig ~servers:5 ~quorum:4 () in
  let got = ref [] in
  Round_trip.exec_skipping rt ~skip:[ 2 ] 9 (fun replies -> got := replies);
  Engine.run e;
  check int "quorum reached without skipped server" 4 (List.length !got);
  check bool "server 2 absent" true
    (not (List.exists (fun (srv, _) -> srv = 2) !got))

let test_round_trip_blocks_without_quorum () =
  let e, net, rt = make_rig ~servers:3 ~quorum:3 () in
  Network.crash net 0;
  let fired = ref false in
  Round_trip.exec rt 1 (fun _ -> fired := true);
  Engine.run e;
  check bool "cannot reach 3 of 2 alive" false !fired

let test_round_trip_tolerates_crash_within_budget () =
  let e, net, rt = make_rig ~servers:3 ~quorum:2 () in
  Network.crash net 0;
  let fired = ref false in
  Round_trip.exec rt 1 (fun _ -> fired := true);
  Engine.run e;
  check bool "2 of 3 suffice" true !fired

let test_quorum_validation () =
  let e = Engine.create () in
  let net = Network.create e ~latency:(Latency.constant 1.0) in
  check bool "quorum 0 rejected" true
    (try
       ignore (Round_trip.create ~net ~node:9 ~servers:[| 0; 1 |] ~quorum:0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Env                                                                  *)
(* ------------------------------------------------------------------ *)

let test_env () =
  let env = Env.make ~s:5 ~t:2 ~w:2 ~r:3 () in
  check int "quorum size" 3 (Env.quorum_size env);
  check int "s" 5 (Env.s env);
  check int "t" 2 (Env.t_ env);
  check int "w" 2 (Env.w env);
  check int "r" 3 (Env.r env);
  check bool "bad t rejected" true
    (try ignore (Env.make ~s:3 ~t:3 ~w:1 ~r:1 ()); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Runtime                                                              *)
(* ------------------------------------------------------------------ *)

let run_simple ?adversary ?(s = 3) ?(t = 1) ?(w = 2) ?(r = 2) ?(seed = 1) plans =
  let env = Env.make ~seed ~s ~t ~w ~r () in
  Runtime.run ~register:Registers.Registry.abd_mwmr ~env ~plans ?adversary ()

let test_runtime_history_well_formed () =
  let out =
    run_simple
      [
        Runtime.write_plan ~writer:0 ~think:5.0 3;
        Runtime.write_plan ~writer:1 ~start_at:2.0 ~think:7.0 3;
        Runtime.read_plan ~reader:0 ~start_at:1.0 ~think:4.0 5;
        Runtime.read_plan ~reader:1 ~start_at:3.0 ~think:6.0 5;
      ]
  in
  let h = out.Runtime.history in
  check bool "well formed" true (Histories.History.well_formed h = Ok ());
  check bool "unique writes" true (Histories.History.unique_writes h);
  check int "all 16 ops present" 16 (Histories.History.length h);
  check bool "all complete (wait-free)" true
    (List.for_all Histories.Op.is_complete (Histories.History.ops h))

let test_runtime_tags_cover_ops () =
  let out =
    run_simple [ Runtime.write_plan ~writer:0 1; Runtime.read_plan ~reader:0 ~start_at:50.0 1 ]
  in
  List.iter
    (fun (t : Checker.Mw_properties.tagged) ->
      check bool "tag present" true (t.Checker.Mw_properties.tag <> None))
    out.Runtime.tagged

let test_runtime_think_time_spacing () =
  let out = run_simple [ Runtime.write_plan ~writer:0 ~think:100.0 2 ] in
  match Histories.History.ops out.Runtime.history with
  | [ a; b ] ->
    check bool "second op starts after think" true
      (b.Histories.Op.inv -. Option.get a.Histories.Op.resp >= 99.0)
  | _ -> Alcotest.fail "expected 2 ops"

let test_runtime_wrong_role_plan_rejected () =
  check bool "reader plan with write raises" true
    (try
       ignore
         (run_simple
            [ { Runtime.proc = Histories.Op.Reader 0; start_at = 0.0; steps = [ Runtime.Write ] } ]);
       false
     with Invalid_argument _ -> true)

let test_runtime_adversary_crash () =
  let crashed = ref (-1) in
  let adversary ctl engine =
    Engine.schedule_at engine ~time:1.0 (fun () ->
        ctl.Control.crash_server 0;
        crashed := ctl.Control.crashed_servers ())
  in
  let out =
    run_simple ~adversary
      [ Runtime.write_plan ~writer:0 ~start_at:5.0 2; Runtime.read_plan ~reader:0 ~start_at:6.0 2 ]
  in
  check int "one server crashed" 1 !crashed;
  check bool "ops still complete with t=1" true
    (List.for_all Histories.Op.is_complete (Histories.History.ops out.Runtime.history))

let test_runtime_hold_then_release () =
  (* Hold all traffic to server 2; ABD still completes on the other two
     (t=1), and held messages flow after the run. *)
  let adversary ctl _ =
    ctl.Control.set_route
      (Some
         (fun ~src:_ ~dst ~now:_ ->
           if dst = 2 then Simulation.Network.Hold else Simulation.Network.Deliver))
  in
  let out = run_simple ~adversary [ Runtime.write_plan ~writer:0 2 ] in
  check bool "writes completed" true
    (List.for_all Histories.Op.is_complete (Histories.History.ops out.Runtime.history));
  check bool "history atomic" true (Checker.Atomicity.is_atomic out.Runtime.history)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "protocol"
    [
      ( "topology",
        [
          tc "layout" test_topology_layout;
          tc "proc_of_node" test_topology_proc_of_node;
          tc "forbidden links" test_topology_forbidden;
          tc "validation" test_topology_validation;
        ] );
      ( "round-trip",
        [
          tc "completes at quorum" test_round_trip_completes_at_quorum;
          tc "fires once" test_round_trip_fires_once;
          tc "sequential rounds" test_round_trip_sequential_rounds;
          tc "skipping" test_round_trip_skipping;
          tc "blocks without quorum" test_round_trip_blocks_without_quorum;
          tc "tolerates crash in budget" test_round_trip_tolerates_crash_within_budget;
          tc "quorum validation" test_quorum_validation;
        ] );
      ("env", [ tc "accessors and validation" test_env ]);
      ( "runtime",
        [
          tc "well-formed history" test_runtime_history_well_formed;
          tc "tags cover ops" test_runtime_tags_cover_ops;
          tc "think-time spacing" test_runtime_think_time_spacing;
          tc "wrong-role plan rejected" test_runtime_wrong_role_plan_rejected;
          tc "adversary crash" test_runtime_adversary_crash;
          tc "hold then release" test_runtime_hold_then_release;
        ] );
    ]
