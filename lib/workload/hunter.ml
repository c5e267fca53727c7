open Protocol

type shape = Benign | Skips | Crash | Inversion | Starvation

let shape_to_string = function
  | Benign -> "benign"
  | Skips -> "skips"
  | Crash -> "crash"
  | Inversion -> "inversion"
  | Starvation -> "starvation"

let all_shapes = [ Benign; Skips; Crash; Inversion; Starvation ]

type found = {
  shape : shape;
  seed : int;
  runs_tried : int;
  witness : Checker.Witness.t;
  mwa_failure : string option;
}

let mixed_plans ~w ~r ~ops =
  List.init w (fun i ->
      Runtime.write_plan ~writer:i
        ~start_at:(float_of_int (3 * i))
        ~think:(10.0 +. float_of_int (7 * i))
        ops)
  @ List.init r (fun i ->
        Runtime.read_plan ~reader:i
          ~start_at:(1.0 +. float_of_int i)
          ~think:(8.0 +. float_of_int (5 * i))
          (2 * ops))

let run ~register ~s ~t ~w ~r ~seed shape =
  match shape with
  | Starvation ->
    (* The certificate-starvation attack: one fixed schedule, whatever
       the seed and writer count. *)
    let env =
      Env.make ~seed:1 ~latency:(Simulation.Latency.constant 1.0) ~s ~t ~w:2
        ~r ()
    in
    let topology = env.Env.topology in
    Runtime.run ~register ~env
      ~plans:(Adversary.threshold_plans ~topology)
      ~adversary:
        (Adversary.apply (Adversary.certificate_starvation ~topology ~t ()))
      ()
  | (Benign | Skips | Crash | Inversion) as shape ->
    let latency =
      match seed mod 3 with
      | 0 -> Simulation.Latency.constant 2.0
      | 1 -> Simulation.Latency.uniform ~lo:1.0 ~hi:10.0
      | _ -> Simulation.Latency.exponential ~mean:4.0
    in
    let env = Env.make ~seed ~latency ~s ~t ~w ~r () in
    let topology = env.Env.topology in
    let adversary =
      match shape with
      | Benign | Inversion | Starvation -> Adversary.none
      | Skips -> Adversary.random_skips ~seed ~topology ~t_budget:t ~window:30.0
      | Crash -> Adversary.crash_random ~seed ~t ~at:20.0 ~s
    in
    let plans =
      match shape with
      | Inversion ->
        [
          Runtime.write_plan ~writer:(w - 1) ~start_at:0.0 1;
          Runtime.write_plan ~writer:0 ~start_at:100.0 1;
          Runtime.read_plan ~reader:0 ~start_at:200.0 1;
        ]
      | Benign | Skips | Crash | Starvation -> mixed_plans ~w ~r ~ops:3
    in
    Runtime.run ~register ~env ~plans ~adversary:(Adversary.apply adversary) ()

let run_shape ~register ~s ~t ~w ~r ~seed shape =
  let out = run ~register ~s ~t ~w ~r ~seed shape in
  let witness =
    match Checker.Atomicity.check out.Runtime.history with
    | Ok () -> None
    | Error wit -> Some wit
  in
  let mwa =
    match
      Checker.Mw_properties.failures
        (Checker.Mw_properties.check out.Runtime.tagged)
    with
    | [] -> None
    | (name, _) :: _ -> Some name
  in
  (witness, mwa)

let hunt ?(shapes = all_shapes) ?(seeds_per_shape = 50) ?pool ~register ~s ~t
    ~w ~r () =
  let seeds shape =
    if shape = Starvation || shape = Inversion then 1 else seeds_per_shape
  in
  match pool with
  | Some pool when Parallel.Pool.domains pool > 1 ->
    (* Parallel hunt: every (shape, seed) run is independent, so fan the
       whole budget out and report the find with the smallest index in
       the sequential visit order — same witness, same [runs_tried], as
       if the sequential hunt had stopped there. *)
    let tasks =
      List.concat_map
        (fun shape ->
          List.init (seeds shape) (fun i -> (shape, i + 1)))
        shapes
    in
    let outcomes =
      Parallel.Pool.map pool
        (fun (shape, seed) -> run_shape ~register ~s ~t ~w ~r ~seed shape)
        tasks
    in
    let rec first idx tasks outcomes =
      match (tasks, outcomes) with
      | [], _ | _, [] -> (None, idx)
      | (shape, seed) :: _, (Some witness, mwa_failure) :: _ ->
        (Some { shape; seed; runs_tried = idx + 1; witness; mwa_failure }, idx + 1)
      | _ :: tasks, (None, _) :: outcomes -> first (idx + 1) tasks outcomes
    in
    first 0 tasks outcomes
  | Some _ | None ->
    (* Sequential hunt stops at the first witness. *)
    let runs = ref 0 in
    let result = ref None in
    (try
       List.iter
         (fun shape ->
           for seed = 1 to seeds shape do
             incr runs;
             match run_shape ~register ~s ~t ~w ~r ~seed shape with
             | Some witness, mwa_failure ->
               result :=
                 Some { shape; seed; runs_tried = !runs; witness; mwa_failure };
               raise Exit
             | None, _ -> ()
           done)
         shapes
     with Exit -> ());
    (!result, !runs)

let pp_found ppf f =
  Format.fprintf ppf
    "@[<v2>violation found (shape %s, seed %d, after %d runs%s):@,%a@]"
    (shape_to_string f.shape) f.seed f.runs_tried
    (match f.mwa_failure with None -> "" | Some m -> ", " ^ m)
    Checker.Witness.pp f.witness
