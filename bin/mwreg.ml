(* mwreg — command-line front end for the multi-writer atomic register
   library.

     mwreg sim --protocol w2r1 -s 5 -t 1 -w 2 -r 2 --seed 7
     mwreg threshold -s 6 -t 1 --r-max 6
     mwreg impossibility --strategy majority-last -s 4
     mwreg sieve -s 8 --flip 1 --flip 5
     mwreg table1
     mwreg live -p w2r2 --drop 0.08 --delay 0.03 --duplicate 0.1 \
       --kill 4@0.05..0.45

   Exit codes: 2 on an atomicity violation (for [live], only in a
   regime Table 1 calls possible: an impossible regime's violation is
   printed and the run exits 0), 1 on a set-up the command or library
   refuses and on a live run in which every client starved, 124 on a
   usage error. *)

open Cmdliner
open Mwregister

(* ------------------------------------------------------------------ *)
(* Common arguments                                                     *)
(* ------------------------------------------------------------------ *)

let s_arg =
  Arg.(value & opt int 5 & info [ "s"; "servers" ] ~docv:"S" ~doc:"Number of servers.")

let t_arg =
  Arg.(value & opt int 1 & info [ "t"; "tolerance" ] ~docv:"T" ~doc:"Crash tolerance.")

let w_arg =
  Arg.(value & opt int 2 & info [ "w"; "writers" ] ~docv:"W" ~doc:"Number of writers.")

let r_arg =
  Arg.(value & opt int 2 & info [ "r"; "readers" ] ~docv:"R" ~doc:"Number of readers.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic RNG seed.")

let domains_arg =
  let doc =
    "Domains for parallel sweeps (results are identical at any count); 0 \
     means the MWREG_DOMAINS environment variable if set, else the \
     recommended domain count."
  in
  Arg.(value & opt int 0 & info [ "domains" ] ~docv:"N" ~doc)

let pool_of_domains n =
  if n >= 1 then Pool.create ~domains:n () else Pool.create ()

(* Each flag with a closed set of values is parsed once, by its
   converter: a bad value is cmdliner's usage error before any command
   runs.  Protocol names (including the w2r2/w2r1/... aliases) resolve
   in the registry. *)
let protocol_conv =
  let parse name =
    match Registry.find name with
    | Some register -> Ok register
    | None -> Error (Printf.sprintf "unknown protocol %S" name)
  in
  Arg.conv' ~docv:"NAME"
    (parse, fun ppf r -> Format.pp_print_string ppf (Registry.name r))

let protocol_opt default doc =
  Arg.(value & opt protocol_conv default
       & info [ "protocol"; "p" ] ~docv:"NAME" ~doc)

let protocol_arg =
  protocol_opt Registry.fastread_w2r1
    "Register protocol: substring match against the registry (w2r2/ls97, \
     w2r1/huang, swmr/abd, dglv, naive)."

(* ------------------------------------------------------------------ *)
(* sim                                                                  *)
(* ------------------------------------------------------------------ *)

let adversary_of_kind kind ~topology ~t ~seed =
  match kind with
  | `None -> Adversary.none
  | `Skips -> Adversary.random_skips ~seed ~topology ~t_budget:t ~window:30.0
  | `Crash -> Adversary.crash_random ~seed ~t ~at:20.0 ~s:topology.Topology.servers

let sim register s t w r seed ops adversary_kind =
  let topology = Topology.make ~servers:s ~writers:w ~readers:r in
  let adversary = adversary_of_kind adversary_kind ~topology ~t ~seed in
  let v =
    run_and_check ~seed ~register ~s ~t ~w ~r
      ~adversary:(Adversary.apply adversary)
      (Hunter.mixed_plans ~w ~r ~ops)
  in
  Format.printf "protocol    : %s@." (Registry.name register);
  Format.printf "config      : S=%d t=%d W=%d R=%d seed=%d@." s t w r seed;
  Format.printf "@[<v>%a@]@." History.pp v.outcome.Runtime.history;
  Format.printf "consistency : %a@." Consistency.pp_level v.consistency;
  (match v.atomicity_witness with
  | None -> ()
  | Some wit -> Format.printf "witness     : %a@." Witness.pp wit);
  Format.printf "MWA0-4      : %s@."
    (match v.mwa_failures with
    | [] -> "all hold"
    | fs -> String.concat ", " (List.map fst fs));
  Format.printf "wait-free   : %b@." v.wait_free;
  Format.printf "reads       : %a@." Stats.pp_summary
    (Stats.reads v.outcome.Runtime.history);
  Format.printf "writes      : %a@." Stats.pp_summary
    (Stats.writes v.outcome.Runtime.history);
  if v.consistency <> Consistency.Atomic then exit 2

let sim_cmd =
  let ops =
    Arg.(value & opt int 3 & info [ "ops" ] ~docv:"N" ~doc:"Writes per writer.")
  in
  let adversary =
    Arg.(value
         & opt (enum [ ("none", `None); ("skips", `Skips); ("crash", `Crash) ]) `None
         & info [ "adversary" ] ~docv:"KIND" ~doc:"none, skips or crash.")
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Run a register protocol on the simulator and check it.")
    Term.(const sim $ protocol_arg $ s_arg $ t_arg $ w_arg $ r_arg $ seed_arg
          $ ops $ adversary)

(* ------------------------------------------------------------------ *)
(* threshold                                                            *)
(* ------------------------------------------------------------------ *)

let threshold s t r_max =
  Printf.printf "fast-read threshold: R < S/t - 2 = %.2f (max safe R = %d)\n\n"
    ((float_of_int s /. float_of_int t) -. 2.0)
    (Bounds.fast_read_threshold ~s ~t);
  List.iter
    (fun v ->
      Format.printf "%a %s@." Threshold.pp_verdict v
        (if Threshold.boundary_matches v then "" else "  <-- MISMATCH"))
    (Threshold.sweep ~register:Registry.fastread_w2r1 ~s ~t ~r_max)

let threshold_cmd =
  let r_max =
    Arg.(value & opt int 6 & info [ "r-max" ] ~docv:"R" ~doc:"Largest reader count.")
  in
  Cmd.v
    (Cmd.info "threshold"
       ~doc:"Sweep reader counts across the fast-read possibility boundary (Fig. 9).")
    Term.(const threshold $ s_arg $ t_arg $ r_max)

(* ------------------------------------------------------------------ *)
(* impossibility                                                        *)
(* ------------------------------------------------------------------ *)

let impossibility strategy_name s seed explain =
  let open Impossible in
  let strategy =
    match strategy_name with
    | "seeded" -> Strategy.seeded seed
    | "wild" -> Strategy.seeded_wild seed
    | name -> List.find (fun st -> st.Strategy.name = name) Strategy.natural
  in
  let finding, stats = W1r2_theorem.run ~s strategy in
  if explain then print_string (Report.explain ~s strategy)
  else begin
    Printf.printf "strategy: %s, S=%d\n\n" strategy.Strategy.name s;
    Format.printf "%a@." W1r2_theorem.pp_finding finding;
    Printf.printf "\ncritical server i1: %s, links verified: %d (failed %d)\n"
      (match stats.W1r2_theorem.i1 with Some i -> string_of_int i | None -> "-")
      stats.W1r2_theorem.links_checked stats.W1r2_theorem.links_failed
  end;
  if not (W1r2_theorem.found_violation finding) then exit 2

let impossibility_cmd =
  let names =
    List.map (fun st -> st.Impossible.Strategy.name) Impossible.Strategy.natural
    @ [ "seeded"; "wild" ]
  in
  let strategy =
    Arg.(value & opt (enum (List.map (fun n -> (n, n)) names)) "majority-last"
         & info [ "strategy" ] ~docv:"NAME"
             ~doc:"A natural strategy name, or 'seeded'/'wild' (with --seed).")
  in
  Cmd.v
    (Cmd.info "impossibility"
       ~doc:"Run the Theorem 1 chain argument against a fast-write strategy.")
    Term.(const impossibility $ strategy
          $ Arg.(value & opt int 4 & info [ "s" ])
          $ seed_arg
          $ Arg.(value & flag & info [ "explain" ]
                 ~doc:"Narrate the whole three-phase walk."))

(* ------------------------------------------------------------------ *)
(* sieve                                                                *)
(* ------------------------------------------------------------------ *)

let sieve s flips =
  let open Impossible in
  match
    Sieve.run ~s ~effect:(Sieve.flip_servers flips) (Sieve.crucial_of_last_digits ())
  with
  | Sieve.Critical { sigma1; sigma2; i1; returns } ->
    Printf.printf "S1 (eliminated) = {%s}\nS2 (kept)       = {%s}\n"
      (String.concat ", " (List.map string_of_int sigma1))
      (String.concat ", " (List.map string_of_int sigma2));
    Printf.printf "returns along shortened chain: %s\n"
      (String.concat " "
         (Array.to_list (Array.map string_of_int returns)));
    Printf.printf "critical flip at position %d within S2\n" i1
  | Sieve.Too_few_unaffected { sigma2; _ } ->
    Printf.printf
      "only %d unaffected servers remain (< 3): no correct implementation can \
       behave like this\n"
      (List.length sigma2)
  | Sieve.Anchor_violation { expected; got; at } ->
    Printf.printf "anchor violation at %s: expected %d, got %d\n" at expected got

let sieve_cmd =
  let flips =
    Arg.(value & opt_all int [] & info [ "flip" ] ~docv:"SRV" ~doc:"Server whose crucial info the blind first round flips (repeatable).")
  in
  Cmd.v
    (Cmd.info "sieve" ~doc:"Run the sieve construction of §4.2 (Fig. 8).")
    Term.(const sieve $ Arg.(value & opt int 6 & info [ "s" ]) $ flips)

(* ------------------------------------------------------------------ *)
(* table1                                                               *)
(* ------------------------------------------------------------------ *)

let table1 s t w r =
  Printf.printf "Table 1 verdicts for S=%d t=%d W=%d R=%d:\n\n" s t w r;
  List.iter
    (fun p ->
      Printf.printf "  %-5s: %s\n"
        (Bounds.design_point_to_string p)
        (if Bounds.possible p ~s ~t ~w ~r then "possible" else "impossible"))
    Bounds.all_design_points

let table1_cmd =
  Cmd.v
    (Cmd.info "table1" ~doc:"Evaluate the paper's Table 1 predicates for a config.")
    Term.(const table1 $ s_arg $ t_arg $ w_arg $ r_arg)

(* ------------------------------------------------------------------ *)
(* record / check                                                       *)
(* ------------------------------------------------------------------ *)

let record register s t w r seed ops path =
  let spec =
    {
      Generator.default with
      Generator.writers = w;
      readers = r;
      writes_per_writer = ops;
      reads_per_reader = 2 * ops;
      seed;
    }
  in
  let env = Env.make ~seed ~s ~t ~w ~r () in
  let out = Runtime.run ~register ~env ~plans:(Generator.plans spec) () in
  Serial.to_file out.Runtime.history ~path;
  Printf.printf "recorded %d operations to %s\n"
    (History.length out.Runtime.history) path

let check_file path k =
  match Serial.of_file ~path with
  | Error msg ->
    Printf.eprintf "cannot parse %s: %s\n" path msg;
    exit 1
  | Ok h ->
    (match History.well_formed h with
    | Error msg ->
      Printf.printf "ill-formed: %s\n" msg;
      exit 2
    | Ok () -> ());
    if not (History.unique_writes h) then begin
      Printf.printf "non-unique written values (or a write of the initial value %d)\n"
        History.initial_value;
      exit 2
    end;
    Format.printf "operations   : %d@." (History.length h);
    Format.printf "consistency  : %a@." Consistency.pp_level (Consistency.classify h);
    let verdict = Atomicity.check h in
    (match verdict with
    | Ok () -> (
      match Atomicity.linearization h with
      | Some order ->
        Format.printf "linearization:@.";
        List.iter (fun o -> Format.printf "  %a@." Op.pp o) order
      | None -> ())
    | Error wit -> Format.printf "witness      : %a@." Witness.pp wit);
    Format.printf "staleness    : max %d, stale fraction %.2f@."
      (Staleness.max_staleness h) (Staleness.stale_fraction h);
    Format.printf "%d-atomic for k = %d@."
      (Staleness.max_staleness h + 1)
      (Staleness.max_staleness h);
    if k >= 0 then
      Format.printf "bounded by k=%d: %b@." k (Staleness.bounded_by h ~k);
    if Result.is_error verdict then exit 2

let record_cmd =
  let ops = Arg.(value & opt int 3 & info [ "ops" ] ~docv:"N") in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"Output history file.")
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Run a workload and write the history to a file.")
    Term.(const record $ protocol_arg $ s_arg $ t_arg $ w_arg $ r_arg $ seed_arg
          $ ops $ path)

let check_cmd =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"History file to check.")
  in
  let k =
    Arg.(value & opt int (-1) & info [ "k" ] ~docv:"K"
         ~doc:"Also report whether staleness is bounded by K.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check a recorded history: atomicity (with linearization or \
             witness), consistency level, staleness.")
    Term.(const check_file $ path $ k)

(* ------------------------------------------------------------------ *)
(* exhaustive                                                           *)
(* ------------------------------------------------------------------ *)

let exhaustive register s w r max_runs domains =
  let pool = pool_of_domains domains in
  let o = Exhaustive.explore ~max_runs ~pool ~register ~s ~w ~r () in
  Format.printf "%s, S=%d t=1 W=%d R=%d: %a@." (Registry.name register) s w r
    Exhaustive.pp_outcome o;
  if o.Exhaustive.violations > 0 then exit 2

let exhaustive_cmd =
  let max_runs =
    Arg.(value & opt int 100_000 & info [ "max-runs" ] ~docv:"N")
  in
  Cmd.v
    (Cmd.info "exhaustive"
       ~doc:"Sweep every sequential small-world schedule (orders x per-round \
             skips) for a tiny configuration.")
    Term.(const exhaustive $ protocol_arg
          $ Arg.(value & opt int 3 & info [ "s"; "servers" ])
          $ Arg.(value & opt int 2 & info [ "w"; "writers" ])
          $ Arg.(value & opt int 1 & info [ "r"; "readers" ])
          $ max_runs $ domains_arg)

(* ------------------------------------------------------------------ *)
(* hunt                                                                 *)
(* ------------------------------------------------------------------ *)

let hunt register s t w r budget domains =
  Printf.printf "hunting for an atomicity violation of %s at S=%d t=%d W=%d R=%d...\n"
    (Registry.name register) s t w r;
  let pool = pool_of_domains domains in
  let found, runs =
    Hunter.hunt ~seeds_per_shape:budget ~pool ~register ~s ~t ~w ~r ()
  in
  match found with
  | Some f ->
    Format.printf "%a@." Hunter.pp_found f;
    exit 2
  | None ->
    Printf.printf
      "no violation in %d runs across %d schedule shapes (evidence of \
       possibility, not proof)\n"
      runs
      (List.length Hunter.all_shapes)

let hunt_cmd =
  let budget =
    Arg.(value & opt int 50 & info [ "budget" ] ~docv:"N"
         ~doc:"Seeds per schedule shape.")
  in
  Cmd.v
    (Cmd.info "hunt"
       ~doc:"Search adversarial schedules for an atomicity violation of a \
             protocol at a configuration.")
    Term.(const hunt $ protocol_arg $ s_arg $ t_arg $ w_arg $ r_arg $ budget
          $ domains_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                                *)
(* ------------------------------------------------------------------ *)

let serve host port id =
  let fail msg =
    Printf.eprintf "mwreg serve: %s\n" msg;
    exit 1
  in
  let addr =
    match Unix.inet_addr_of_string host with
    | inet -> Unix.ADDR_INET (inet, port)
    | exception Failure _ ->
      fail (Printf.sprintf "host %S is not a numeric address" host)
  in
  let server =
    try Live.Server.start ~addr ~id () with
    | Invalid_argument msg -> fail msg
    | Unix.Unix_error (e, fn, _) ->
      fail (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  in
  Format.printf "mwreg server %d listening on %a@." id Live.Cluster.pp_addr
    (Live.Server.addr server);
  (* Serve until the process is killed — which is exactly how clients
     are meant to lose this server. *)
  while true do
    Thread.delay 3600.0
  done

let serve_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind.")
  in
  let port =
    Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT"
         ~doc:"Port to bind (0 picks an ephemeral port, printed on start).")
  in
  let id =
    Arg.(value & opt int 0 & info [ "id" ] ~docv:"I"
         ~doc:"This server's index in the cluster (0-based).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run one register server daemon over TCP (kill the process to \
             crash it).")
    Term.(const serve $ host $ port $ id)

(* ------------------------------------------------------------------ *)
(* live                                                                 *)
(* ------------------------------------------------------------------ *)

let hostport_conv =
  let parse spec =
    match String.rindex_opt spec ':' with
    | None -> Error (Printf.sprintf "bad address %S (want HOST:PORT)" spec)
    | Some i -> (
      let host = String.sub spec 0 i in
      match
        ( (try Some (Unix.inet_addr_of_string host) with Failure _ -> None),
          int_of_string_opt
            (String.sub spec (i + 1) (String.length spec - i - 1)) )
      with
      | Some addr, Some port when port >= 0 && port <= 65535 ->
        Ok (Unix.ADDR_INET (addr, port))
      | None, _ -> Error (Printf.sprintf "bad host in %S" spec)
      | Some _, (Some _ | None) ->
        Error (Printf.sprintf "bad port in %S (want 0..65535)" spec))
  in
  Arg.conv' ~docv:"HOST:PORT" (parse, Live.Cluster.pp_addr)

(* IDX@SEC kills the first group's server IDX after SEC seconds;
   IDX@SEC..SEC also restarts it, with its recovered state, at the
   second time, which must come after the first. *)
let kill_conv =
  let parse spec =
    let parsed =
      match
        Scanf.sscanf_opt spec "%d@%f..%f%!" (fun i a b -> (i, a, Some b))
      with
      | Some _ as kill -> kill
      | None -> Scanf.sscanf_opt spec "%d@%f%!" (fun i a -> (i, a, None))
    in
    let bad why = Error (Printf.sprintf "bad kill spec %S (%s)" spec why) in
    match parsed with
    | Some (_, at, Some back) when back <= at ->
      bad "the restart must come after the kill"
    | Some kill -> Ok kill
    | None -> bad "want IDX@SEC or IDX@SEC..SEC"
  in
  let print ppf (idx, at, back) =
    Format.fprintf ppf "%d@@%g" idx at;
    Option.iter (Format.fprintf ppf "..%g") back
  in
  Arg.conv' ~docv:"IDX@SEC[..SEC]" (parse, print)

let crash_schedule kills =
  List.concat_map
    (fun (idx, at, back) ->
      (at, 0, idx, Kv.Session.Kill)
      :: Option.fold back ~none:[] ~some:(fun b ->
             [ (b, 0, idx, Kv.Session.Restart `Recover) ]))
    kills

(* The storm of --drop/--delay/--duplicate, on every link in both
   directions: each frame dropped with probability [drop], delayed with
   probability 0.25 by up to [delay] seconds (a quarter of it always,
   the rest drawn per copy), duplicated with probability [duplicate].
   0 turns a rule off; a value out of range is [Faults.rule]'s to
   refuse.  The list order is the plan's rule order, so a seed makes
   the same decisions run after run. *)
let storm_rules ~drop ~delay ~duplicate =
  let open Live.Faults in
  List.concat
    [
      (if drop <> 0.0 then [ rule ~prob:drop Drop ] else []);
      (if delay <> 0.0 then
         [
           rule ~prob:0.25
             (Latency { base = delay /. 4.0; jitter = 0.75 *. delay });
         ]
       else []);
      (if duplicate <> 0.0 then [ rule ~prob:duplicate Duplicate ] else []);
    ]

(* A storm's round-trip budget: a lossy link costs retries, so the
   retry count is the generous knob.  The quorum contract starves only
   if a whole rt_timeout × retries window stays unlucky. *)
let storm_budget = { Live.Geo.rt_timeout = 0.3; max_rt_retries = 10 }

(* --geo PROFILE, or --geo list for the profiles' matrices. *)
let geo_conv =
  let parse = function
    | "list" -> Ok `List
    | name -> (
      match Live.Geo.find name with
      | Some p -> Ok (`Profile p)
      | None ->
        Error
          (Printf.sprintf "unknown geo profile %S (profiles: %s, or list)"
             name
             (String.concat ", " (Live.Geo.names ()))))
  in
  let print ppf = function
    | `List -> Format.pp_print_string ppf "list"
    | `Profile p -> Format.pp_print_string ppf (Live.Geo.name p)
  in
  Arg.conv' ~docv:"PROFILE" (parse, print)

let pp_ms ppf (st : Stats.summary) =
  Format.fprintf ppf
    "n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f (ms)" st.Stats.count
    (1e3 *. st.Stats.mean) (1e3 *. st.Stats.p50) (1e3 *. st.Stats.p95)
    (1e3 *. st.Stats.p99) (1e3 *. st.Stats.max)

(* --check live|off: whether the run streams through the online
   checker. *)
let check_mode_arg =
  Arg.(value
       & opt (enum [ ("live", true); ("off", false) ]) true
       & info [ "check" ] ~docv:"MODE"
           ~doc:"Atomicity checking: $(b,live) (the default) streams every \
                 operation through the online checker while the run is in \
                 flight — O(window) memory, violations reported the moment \
                 a verdict turns — and $(b,off) records and checks nothing.")

(* Mid-run hook: a verdict turning is worth a line the moment it
   happens, not minutes later when the run drains. *)
let announce_violation key w =
  Format.printf "live check  : key %s VIOLATED mid-run: %a@." key Witness.pp w

(* A run in which every client starved before completing an operation
   (no quorum ever answered: a dead cluster, a cut network) checked
   nothing, so its "atomicity : OK" must not pass: exit 1. *)
let exit_if_starved (res : Kv.Session.result) =
  if res.Kv.Session.ops = 0 && res.Kv.Session.starved > 0 then begin
    prerr_string
      "mwreg live: every client starved: no operation completed (no quorum \
       of servers answered)\n";
    exit 1
  end

(* Prints a finished run's atomicity verdict and returns whether it
   held: the streaming checker's report ([online] is present exactly
   when the run had [--check live]), closed by a one-line verdict. *)
let verdict online =
  match online with
  | None ->
    Format.printf "atomicity   : not checked (--check off)@.";
    true
  | Some (r : Live.Check_sink.report) ->
    Format.printf
      "live check  : %d op(s) over %d key(s); peak window %d resident op(s)@."
      r.Live.Check_sink.checked r.Live.Check_sink.keys
      r.Live.Check_sink.peak_window;
    Format.printf
      "              %.0f ops/s through the checker (%.3fs busy, %d batches)@."
      r.Live.Check_sink.checker_ops_per_sec r.Live.Check_sink.busy
      r.Live.Check_sink.batches;
    List.iter
      (fun (key, w) ->
        Format.printf "  key %-12s VIOLATED %a@." key Witness.pp w)
      r.Live.Check_sink.violations;
    let ok = Live.Check_sink.atomic r in
    Format.printf "atomicity   : %s (streaming verdict)@."
      (if ok then "OK" else "VIOLATED");
    ok

(* One finished run against [cluster]; returns whether it passes:
   atomic, or in a regime where Table 1 ([possible]) promises nothing. *)
let report ~register ~cluster ~possible (spec : Kv.Session.spec)
    (res : Kv.Session.result) =
  let groups = Kv.Cluster.group_count cluster in
  let g0 = Kv.Cluster.group cluster 0 in
  Format.printf "protocol    : %s@." (Registry.name register);
  Format.printf
    "cluster     : %s, %d group(s) of S=%d t=%d (quorum %d), mux transport@."
    (if Live.Cluster.local g0 then "in-process" else "remote")
    groups (Live.Cluster.s g0) (Live.Cluster.tolerance g0)
    (Live.Cluster.quorum g0);
  let keys =
    if spec.Kv.Session.keys = 1 then "1 key"
    else
      Printf.sprintf "%d keys %s" spec.Kv.Session.keys
        (Ycsb.dist_name spec.Kv.Session.dist)
  in
  (match spec.Kv.Session.roles with
  | Kv.Session.Mixed c ->
    Format.printf "workload    : %d mixed client(s) x %d ops, YCSB %s, %s@." c
      spec.Kv.Session.ops_per_client
      (Ycsb.mix_name spec.Kv.Session.mix)
      keys
  | Kv.Session.Split { writers; readers } ->
    Format.printf
      "workload    : %d writer(s) x %d writes, %d reader(s) x %d reads, %s@."
      writers spec.Kv.Session.ops_per_client readers
      (2 * spec.Kv.Session.ops_per_client)
      keys);
  Format.printf "ops         : %d in %.3fs (%.0f ops/s), %d key(s) touched@."
    res.Kv.Session.ops res.Kv.Session.duration res.Kv.Session.throughput
    res.Kv.Session.keys_touched;
  Format.printf
    "round trips : write %.2f/op, read %.2f/op, late replies %d, retries %d@."
    res.Kv.Session.write_rounds res.Kv.Session.read_rounds res.Kv.Session.late
    res.Kv.Session.retries;
  Format.printf "all         : %a@." pp_ms res.Kv.Session.all_lat;
  Format.printf "writes      : %a@." pp_ms res.Kv.Session.write_lat;
  Format.printf "reads       : %a@." pp_ms res.Kv.Session.read_lat;
  if groups > 1 then
    Format.printf "per group   : %s ops@."
      (String.concat ", "
         (Array.to_list (Array.map string_of_int res.Kv.Session.group_ops)));
  let killed =
    List.concat_map
      (fun g ->
        let c = Kv.Cluster.group cluster g in
        let running = Live.Cluster.running c in
        List.filter_map
          (fun i ->
            if List.mem i running then None
            else if groups = 1 then Some (string_of_int i)
            else Some (Printf.sprintf "%d.%d" g i))
          (List.init (Live.Cluster.s c) Fun.id))
      (List.init groups Fun.id)
  in
  if killed <> [] then
    Format.printf "killed      : %s@." (String.concat ", " killed);
  if res.Kv.Session.starved > 0 then
    Format.printf "starved     : %d client(s) gave up without a quorum@."
      res.Kv.Session.starved;
  if res.Kv.Session.dropped > 0 then
    Format.printf "dropped     : %d stray reply(ies)@." res.Kv.Session.dropped;
  let ok = verdict res.Kv.Session.online in
  Format.printf "theory      : %s@.@."
    (if possible then "possible regime — a violation fails the run"
     else "impossible regime — no guarantee");
  ok || not possible

(* A set-up the command or the library refuses (a writer bound, a bad
   size, an outage on a one-region profile) exits 1 with its message. *)
let refuse msg =
  Printf.eprintf "mwreg live: %s\n" msg;
  exit 1

let refused f = try f () with Invalid_argument msg -> refuse msg

let live register all s tol w r clients ops keys groups dist theta mix seed
    think rt_timeout addrs kills drop delay duplicate geo outage check =
  let profile =
    match geo with
    | Some `List ->
      List.iter
        (fun p -> print_string (Live.Geo.describe p); print_newline ())
        Live.Geo.profiles;
      exit 0
    | Some (`Profile p) -> Some p
    | None -> None
  in
  if addrs <> [] && kills <> [] then
    refuse "--kill needs an in-process cluster (drop --connect)";
  if addrs <> [] && all then
    refuse "--all needs a fresh cluster per protocol: drop --connect";
  if addrs <> [] && groups > 1 then
    refuse "--connect attaches one group of servers: drop --groups";
  if outage && profile = None then refuse "--outage needs --geo PROFILE";
  let s = if addrs = [] then s else List.length addrs in
  let dist =
    match dist with `Zipfian -> Ycsb.Zipfian theta | `Uniform -> Ycsb.Uniform
  in
  let storm = refused (fun () -> storm_rules ~drop ~delay ~duplicate) in
  let crashes = crash_schedule kills in
  let run_one register =
    let roles, nclients, w, r =
      match clients with
      | Some c -> (Kv.Session.Mixed c, c, c, c)
      | None ->
        let w = if all then Registry.clamp_writers register w else w in
        (Kv.Session.Split { writers = w; readers = r }, w + r, w, r)
    in
    let spec =
      { Kv.Session.roles; ops_per_client = ops; keys; dist; mix; seed; think }
    in
    (* Client [i] is node [s + i] in every group (the Topology
       numbering), so one plan shapes every group's links.  A client
       count below one is [Kv.Session.run]'s to refuse. *)
    let nodes = List.init (max 0 nclients) (fun i -> s + i) in
    let faults, budget =
      match profile with
      | None when storm = [] -> (None, None)
      | None -> (Some (Live.Faults.create ~seed storm), Some storm_budget)
      | Some p ->
        let o =
          if outage then
            Some (refused (fun () -> Live.Geo.outage p ~s ~clients:nodes))
          else None
        in
        print_string (Live.Geo.describe p);
        let extra, budget =
          match o with
          | None -> (storm, Live.Geo.budget p)
          | Some o ->
            Format.printf
              "outage      : region %s (nodes %s) cut %.2fs..%.2fs@."
              (Live.Geo.region_name p o.region)
              (String.concat "," (List.map string_of_int o.cut))
              o.from_ o.until;
            (o.rule :: storm, Live.Geo.outage_budget p)
        in
        (Some (Live.Geo.plan ~seed ~extra p ~s ~clients:nodes), Some budget)
    in
    if storm <> [] then
      Format.printf
        "faults      : drop %.2f, delay <= %.3fs, duplicate %.2f (seed %d)@."
        drop delay duplicate seed;
    let rt_timeout =
      if rt_timeout <> None then rt_timeout
      else Option.map (fun b -> b.Live.Geo.rt_timeout) budget
    in
    let max_rt_retries =
      Option.map (fun b -> b.Live.Geo.max_rt_retries) budget
    in
    (* A fresh cluster per protocol: replica state must not leak
       between runs (a stale value surfacing in a read would be an
       artifact, not a violation). *)
    let cluster =
      refused (fun () ->
          match addrs with
          | [] -> Kv.Cluster.start ?faults ~groups ~s ~tol ()
          | addrs -> Kv.Cluster.connect ~addrs:(Array.of_list addrs) ~tol)
    in
    Fun.protect
      ~finally:(fun () -> Kv.Cluster.shutdown cluster)
      (fun () ->
        let res =
          refused (fun () ->
              Kv.Session.run ~crashes ?rt_timeout ?max_rt_retries ?faults
                ~register ~live_check:check ~on_violation:announce_violation
                ~cluster spec)
        in
        let possible =
          Bounds.possible (Registry.design_point register) ~s ~t:tol ~w ~r
        in
        let ok = report ~register ~cluster ~possible spec res in
        exit_if_starved res;
        ok)
  in
  let ok = List.for_all run_one (if all then Registry.all else [ register ]) in
  if not ok then exit 2

let live_cmd =
  (* Default to the multi-writer ABD, atomic at any reader count: a
     fast-read default would silently leave its R < S/t - 2 regime as
     soon as the run has a few readers or mixed clients. *)
  let protocol =
    protocol_opt Registry.abd_mwmr
      "Register protocol run per key: substring match against the \
       registry (w2r2/ls97, w2r1/huang, swmr/abd, dglv, naive)."
  in
  let all =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Run every registered protocol (smoke mode; with split \
                   roles, single-writer protocols are clamped to W=1).")
  in
  let clients =
    Arg.(value & opt (some int) None & info [ "clients"; "c" ] ~docv:"C"
         ~doc:"Mixed roles: C closed-loop YCSB clients, each both writing \
               and reading (per $(b,--mix)), in place of the split \
               $(b,-w) writers and $(b,-r) readers.")
  in
  let ops =
    Arg.(value & opt int 20 & info [ "ops" ] ~docv:"N"
         ~doc:"Operations per client: with split roles each writer writes N \
               times and each reader reads 2N times.")
  in
  let keys =
    Arg.(value & opt int 1 & info [ "keys"; "k" ] ~docv:"K"
         ~doc:"Keyspace size (1: a single register).")
  in
  let groups =
    Arg.(value & opt int 1 & info [ "groups"; "g" ] ~docv:"G"
         ~doc:"Shard groups (each its own S-server quorum system).")
  in
  let dist =
    Arg.(value
         & opt (enum [ ("zipfian", `Zipfian); ("uniform", `Uniform) ]) `Zipfian
         & info [ "dist" ] ~docv:"DIST"
         ~doc:"Key popularity: $(b,zipfian) (rank 0 hottest) or \
               $(b,uniform).")
  in
  let theta =
    Arg.(value & opt float Ycsb.default_theta
         & info [ "theta" ] ~docv:"THETA"
             ~doc:"Zipfian skew parameter (0 < THETA < 1).")
  in
  let mix_conv =
    let parse m =
      Option.to_result (Ycsb.mix_of_string m)
        ~none:(Printf.sprintf "unknown mix %S (A|B|C)" m)
    in
    Arg.conv' ~docv:"MIX"
      (parse, fun ppf m -> Format.pp_print_string ppf (Ycsb.mix_name m))
  in
  let mix =
    Arg.(value & opt mix_conv Ycsb.A & info [ "mix" ] ~docv:"MIX"
         ~doc:"YCSB operation mix of $(b,--clients): $(b,A) 50/50, $(b,B) \
               95% reads, $(b,C) read-only.")
  in
  let think =
    Arg.(value & opt float 0.0 & info [ "think" ] ~docv:"SEC"
         ~doc:"Think time between a client's operations.")
  in
  let rt_timeout =
    Arg.(value & opt (some float) None & info [ "rt-timeout" ] ~docv:"SEC"
         ~doc:"Per-round-trip timeout before re-broadcasting (default 1s; \
               under $(b,--geo) the profile's round-trip budget, else \
               under a storm 0.3s with 10 retries).")
  in
  let connect =
    Arg.(value & opt_all hostport_conv []
         & info [ "connect" ] ~docv:"HOST:PORT"
             ~doc:"Use an already-running server (repeat once per server) \
                   over TCP instead of spawning an in-process cluster.")
  in
  let kills =
    Arg.(value & opt_all kill_conv []
         & info [ "kill" ] ~docv:"IDX@SEC[..SEC]"
             ~doc:"Kill the first group's server IDX after SEC seconds; \
                   with $(b,..SEC), restart it with its recovered state at \
                   that later time (repeatable; in-process clusters only).")
  in
  let storm name docv doc =
    Arg.(value & opt float 0.0 & info [ name ] ~docv ~doc)
  in
  let drop =
    storm "drop" "P" "Storm: per-frame drop probability (0: off)."
  in
  let delay =
    storm "delay" "SEC"
      "Storm: delay a frame with probability 0.25 by up to SEC seconds \
       (0: off)."
  in
  let duplicate =
    storm "duplicate" "P" "Storm: per-frame duplication probability (0: off)."
  in
  let geo =
    Arg.(value & opt (some geo_conv) None
         & info [ "geo" ] ~docv:"PROFILE"
             ~doc:"Shape every client<->server link with the named WAN/geo \
                   profile: per-region-pair base delay plus jitter on both \
                   legs, compiled from the same matrices as the simulator's \
                   latency model for that profile, with the round-trip \
                   budget declared next to it.  Both legs are realised in \
                   this client process, so it works against \
                   $(b,--connect)ed daemons too.  $(b,--geo list) prints \
                   every profile's matrices and exits.")
  in
  let outage =
    Arg.(value & flag
         & info [ "outage" ]
             ~doc:"With $(b,--geo): cut the profile's last region off from \
                   0.05s to 0.30s into the run, under the profile's outage \
                   budget (short timeout, more retries): its clients must \
                   ride the window out on retries while the majority side \
                   keeps committing.  Refused on a one-region profile.")
  in
  Cmd.v
    (Cmd.info "live"
       ~doc:"Run a workload on a live cluster over real sockets — one \
             register with split writers and readers, or a sharded YCSB \
             keyspace — optionally under a seeded storm of dropped, \
             delayed and duplicated frames ($(b,--seed) seeds it) and \
             server kills and restarts, and check every operation for \
             atomicity as it completes.  Each run prints Table 1's verdict \
             at its S, t, W and R (W = R = C for mixed clients).  Exits 2 \
             on a violation in a regime Table 1 calls possible; in an \
             impossible regime a violation is printed and the run exits 0. \
             Exits 1 on a set-up the library refuses or when every client \
             starved without completing an operation (no quorum \
             answered).")
    Term.(const live $ protocol $ all $ s_arg $ t_arg $ w_arg $ r_arg
          $ clients $ ops $ keys $ groups $ dist $ theta $ mix $ seed_arg
          $ think $ rt_timeout $ connect $ kills $ drop $ delay $ duplicate
          $ geo $ outage $ check_mode_arg)

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "mwreg" ~version
      ~doc:"Fast implementations of distributed multi-writer atomic registers."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ sim_cmd; threshold_cmd; impossibility_cmd; sieve_cmd; table1_cmd;
            record_cmd; check_cmd; exhaustive_cmd; hunt_cmd; serve_cmd;
            live_cmd ]))
