open Histories
open Registers

let plan ?(seed = 0) ?(drop = 0.08) ?(delay = 0.03) ?(duplicate = 0.1) () =
  let rules = [] in
  let rules =
    if duplicate > 0.0 then Faults.rule ~prob:duplicate Faults.Duplicate :: rules
    else rules
  in
  let rules =
    if delay > 0.0 then Faults.rule ~prob:0.25 (Faults.Delay delay) :: rules
    else rules
  in
  let rules =
    if drop > 0.0 then Faults.rule ~prob:drop Faults.Drop :: rules else rules
  in
  Faults.create ~seed rules

type soak = {
  register : Protocol.Register_intf.t;
  seed : int;
  drop : float;
  delay : float;
  duplicate : float;
  restarted : bool;
  result : Session.result;
  atomic : bool;
  expected_atomic : bool;
}

let soak ?(seed = 0) ?(drop = 0.08) ?(delay = 0.03)
    ?(duplicate = 0.1) ?(s = 5) ?(tol = 1) ?(ops = 8) ?(restart = true)
    ?(server_shards = 1) ?live_check ?on_violation ~register () =
  let faults = plan ~seed ~drop ~delay ~duplicate () in
  let cluster = Cluster.start ~faults ~shards:server_shards ~s ~tol () in
  Fun.protect
    ~finally:(fun () -> Cluster.shutdown cluster)
    (fun () ->
      let writers =
        match Registry.max_writers register with Some m -> min m 2 | None -> 2
      in
      let spec =
        {
          Session.writers;
          readers = 2;
          writes_per_writer = ops;
          reads_per_reader = 2 * ops;
          write_think = 0.0;
          read_think = 0.0;
        }
      in
      let restarted = restart && tol >= 1 in
      let kill_at, restart_at =
        if restarted then ([ (0.05, s - 1) ], [ (0.45, s - 1, `Recover) ])
        else ([], [])
      in
      (* A lossy link costs retries, so the retry budget is the one knob
         that must be generous: the quorum contract starves only if a
         whole rt_timeout × budget window stays unlucky. *)
      let result =
        Session.run ~kill_at ~restart_at ~faults ~rt_timeout:0.3
          ~max_rt_retries:10 ?live_check ?on_violation ~register ~cluster spec
      in
      let expected_atomic =
        Quorums.Bounds.possible
          (Registry.design_point register)
          ~s ~t:tol ~w:writers ~r:spec.Session.readers
      in
      {
        register;
        seed;
        drop;
        delay;
        duplicate;
        restarted;
        result;
        atomic = Checker.Atomicity.is_atomic result.Session.history;
        expected_atomic;
      })

type restart_outcome = {
  mode : Cluster.restart_mode;
  atomic : bool;
  witness : string option;
  read_value : int option;
  history : Histories.History.t;
}

let restart_scenario ?(server_shards = 1) ~mode () =
  let s = 3 and tol = 1 in
  let register = Registry.abd_mwmr in
  let algo = Registry.client_algo register in
  (* Topology numbering: servers 0..2, writer 0 = node 3, reader 0 =
     node 4 (1 writer). *)
  let writer_node = s and reader_node = s + 1 in
  let faults =
    Faults.create ~seed:1
      [
        (* Confine the write to quorum {0,1} … *)
        Faults.cut ~dir:Faults.To_server ~clients:[ writer_node ]
          ~servers:[ 2 ] ();
        (* … and force the read onto quorum {0,2}. *)
        Faults.cut ~dir:Faults.To_server ~clients:[ reader_node ]
          ~servers:[ 1 ] ();
      ]
  in
  let cluster = Cluster.start ~faults ~shards:server_shards ~s ~tol () in
  Fun.protect
    ~finally:(fun () -> Cluster.shutdown cluster)
    (fun () ->
      let cl =
        Cluster.clients ~rt_timeout:0.25 cluster ~writers:1
          ~readers:1
      in
      Fun.protect
        ~finally:(fun () -> Cluster.close_clients cl)
        (fun () ->
          Faults.arm faults;
          (* Relative timestamps for the two-op history: monotonic, so a
             wall-clock step cannot reorder the invariant under test. *)
          let t0 = Clock.now () in
          let ts () = Clock.now () -. t0 in
          let write = algo.Client_core.new_writer cl.Cluster.ctx ~writer:0 in
          let read = algo.Client_core.new_reader cl.Cluster.ctx ~reader:0 in
          let payload = History.initial_value + 41 in
          let w_inv = ts () in
          let w_resp = ref None in
          write ~payload ~k:(fun _tag -> w_resp := Some (ts ()));
          (* The write is acknowledged and lives exactly on {0,1}.  Now
             the crash — and the restart whose fidelity is under test. *)
          Cluster.kill cluster 0;
          Cluster.restart ~mode cluster 0;
          let r_inv = ts () in
          let r_resp = ref None and r_result = ref None in
          read ~k:(fun value _tag ->
              r_result := Some value;
              r_resp := Some (ts ()));
          let history =
            History.of_ops
              [
                Op.write ~id:0 ~proc:(Op.Writer 0) ~value:payload ~inv:w_inv
                  ~resp:!w_resp;
                Op.read ~id:1 ~proc:(Op.Reader 0) ~inv:r_inv ~resp:!r_resp
                  ~result:!r_result;
              ]
          in
          match Checker.Atomicity.check history with
          | Ok () ->
            { mode; atomic = true; witness = None; read_value = !r_result;
              history }
          | Error w ->
            {
              mode;
              atomic = false;
              witness = Some (Checker.Witness.to_string w);
              read_value = !r_result;
              history;
            }))
