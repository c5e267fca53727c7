open Histories
open Registers
open Transport

let plan ?(seed = 0) ?(drop = 0.08) ?(delay = 0.03) ?(duplicate = 0.1) () =
  let rules = [] in
  let rules =
    if duplicate > 0.0 then Faults.rule ~prob:duplicate Faults.Duplicate :: rules
    else rules
  in
  let rules =
    (* A delay up to [delay]: a quarter of it always, the rest drawn
       uniformly per copy. *)
    if delay > 0.0 then
      Faults.rule ~prob:0.25
        (Faults.Latency { base = delay /. 4.0; jitter = 0.75 *. delay })
      :: rules
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
  result : Kv_session.result;
  expected_atomic : bool;
}

let soak ?(seed = 0) ?(drop = 0.08) ?(delay = 0.03)
    ?(duplicate = 0.1) ?(s = 5) ?(tol = 1) ?(ops = 8) ?live_check
    ?on_violation ~register () =
  let faults = plan ~seed ~drop ~delay ~duplicate () in
  let cluster = Kv_cluster.start ~faults ~groups:1 ~s ~tol () in
  Fun.protect
    ~finally:(fun () -> Kv_cluster.shutdown cluster)
    (fun () ->
      let writers = Registry.clamp_writers register 2 in
      let readers = 2 in
      let restarted = tol >= 1 in
      let crashes =
        if restarted then
          Kv_session.
            [ (0.05, 0, s - 1, Kill); (0.45, 0, s - 1, Restart `Recover) ]
        else []
      in
      (* A lossy link costs retries, so the retry budget is the one knob
         that must be generous: the quorum contract starves only if a
         whole rt_timeout × budget window stays unlucky. *)
      let result =
        Kv_session.run ~crashes ~faults ~rt_timeout:0.3
          ~max_rt_retries:10 ?live_check ?on_violation ~register ~cluster
          (Kv_session.register_spec ~writers ~readers ops)
      in
      {
        register;
        seed;
        drop;
        delay;
        duplicate;
        restarted;
        result;
        expected_atomic =
          Quorums.Bounds.possible
            (Registry.design_point register)
            ~s ~t:tol ~w:writers ~r:readers;
      })

type restart_outcome = {
  mode : Cluster.restart_mode;
  atomic : bool;
  witness : string option;
  read_value : int option;
  history : Histories.History.t;
}

let restart_scenario ~mode () =
  let s = 3 and tol = 1 in
  let algo = Registry.client_algo Registry.abd_mwmr in
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
  let kc = Kv_cluster.start ~faults ~groups:1 ~s ~tol () in
  let cluster = Kv_cluster.group kc 0 in
  Fun.protect
    ~finally:(fun () -> Kv_cluster.shutdown kc)
    (fun () ->
      let router = Router.create ~rt_timeout:0.25 ~faults ~clients:1 kc in
      let wc = Router.client router ~index:0 in
      let rc = Router.client router ~index:1 in
      Fun.protect
        ~finally:(fun () ->
          Router.close_client wc;
          Router.close_client rc;
          Router.shutdown router)
        (fun () ->
          Faults.arm faults;
          (* Relative timestamps for the two-op history: monotonic, so a
             wall-clock step cannot reorder the invariant under test. *)
          let t0 = Clock.now () in
          let ts () = Clock.now () -. t0 in
          let key = Workload.Ycsb.key_name 0 in
          let write =
            algo.Client_core.new_writer (Router.key_ctx wc key) ~writer:0
          in
          let read =
            algo.Client_core.new_reader (Router.key_ctx rc key) ~reader:0
          in
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
