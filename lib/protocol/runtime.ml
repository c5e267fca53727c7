open Histories
open Simulation

type step = Write | Read | Think of float

type plan = { proc : Op.proc; start_at : float; steps : step list }

type outcome = {
  history : History.t;
  tagged : Checker.Mw_properties.tagged list;
  net_stats : Network.stats;
  sim_time : float;
  events : int;
}

let deadline = 1e7

let run ~register ~env ~plans ?adversary () =
  let module R = (val register : Register_intf.S) in
  let engine = env.Env.engine in
  let cluster = R.create env in
  let ctl = R.control cluster in
  (match adversary with None -> () | Some a -> a ctl engine);
  let recorder = Recorder.create () in
  let tags : (int, Checker.Mw_properties.tag) Hashtbl.t = Hashtbl.create 64 in
  let run_plan plan =
    let rec next steps =
      match steps with
      | [] -> ()
      | Think d :: rest -> Engine.schedule engine ~delay:d (fun () -> next rest)
      | Write :: rest ->
        let writer =
          match plan.proc with
          | Op.Writer i -> i
          | Op.Reader _ -> invalid_arg "Runtime: a reader plan contains a write"
        in
        let value = Recorder.fresh_value recorder in
        let h =
          Recorder.begin_write recorder ~proc:plan.proc ~value
            ~now:(Engine.now engine)
        in
        R.write cluster ~writer ~value ~k:(fun tag ->
            Recorder.finish_write recorder h ~now:(Engine.now engine);
            (match tag with
            | None -> ()
            | Some tag ->
              (* The recorder hands out ids in order; recover this op's id
                 from the snapshot later via the tag table keyed by value. *)
              Hashtbl.replace tags value tag);
            next rest)
      | Read :: rest ->
        let reader =
          match plan.proc with
          | Op.Reader i -> i
          | Op.Writer _ -> invalid_arg "Runtime: a writer plan contains a read"
        in
        let h =
          Recorder.begin_read recorder ~proc:plan.proc ~now:(Engine.now engine)
        in
        R.read cluster ~reader ~k:(fun value tag ->
            Recorder.finish_read recorder h ~now:(Engine.now engine)
              ~result:value;
            (match tag with
            | None -> ()
            | Some tag -> Hashtbl.replace tags (-(Recorder.handle_id h) - 1) tag);
            next rest)
    in
    Engine.schedule_at engine ~time:plan.start_at (fun () -> next plan.steps)
  in
  List.iter run_plan plans;
  Engine.run ~until:deadline engine;
  (* Skipped messages arrive after the execution proper has finished. *)
  ctl.Control.release_held ();
  Engine.run ~until:(deadline *. 2.0) engine;
  let history = Recorder.snapshot recorder in
  let tag_of (o : Op.t) =
    match o.Op.kind with
    | Op.Write v -> Hashtbl.find_opt tags v
    | Op.Read -> Hashtbl.find_opt tags (-o.Op.id - 1)
  in
  let tagged =
    List.map
      (fun o -> { Checker.Mw_properties.op = o; tag = tag_of o })
      (History.ops history)
  in
  {
    history;
    tagged;
    net_stats = ctl.Control.net_stats ();
    sim_time = Engine.now engine;
    events = Engine.processed engine;
  }

let repeat n step ~think =
  let rec go n acc =
    if n <= 0 then List.rev acc
    else
      let acc = if think > 0.0 && acc <> [] then step :: Think think :: acc else step :: acc in
      go (n - 1) acc
  in
  go n []

let write_plan ~writer ?(start_at = 0.0) ?(think = 0.0) n =
  { proc = Op.Writer writer; start_at; steps = repeat n Write ~think }

let read_plan ~reader ?(start_at = 0.0) ?(think = 0.0) n =
  { proc = Op.Reader reader; start_at; steps = repeat n Read ~think }
