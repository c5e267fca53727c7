(* mwreg — command-line front end for the multi-writer atomic register
   library.

     mwreg sim --protocol w2r1 -s 5 -t 1 -w 2 -r 2 --seed 7
     mwreg threshold -s 6 -t 1 --r-max 6
     mwreg impossibility --strategy majority-last -s 4
     mwreg sieve -s 8 --flip 1 --flip 5
     mwreg table1 *)

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

let protocol_arg =
  let doc =
    "Register protocol: substring match against the registry (w2r2/ls97, \
     w2r1/huang, swmr/abd, dglv, naive)."
  in
  Arg.(value & opt string "w2r1" & info [ "protocol"; "p" ] ~docv:"NAME" ~doc)

(* Name resolution (including the w2r2/w2r1/... aliases) lives entirely
   in the registry. *)
let find_protocol = Registry.find

(* ------------------------------------------------------------------ *)
(* sim                                                                  *)
(* ------------------------------------------------------------------ *)

let adversary_of_kind kind ~topology ~t ~seed =
  match kind with
  | "none" -> Ok Adversary.none
  | "skips" ->
    Ok (Adversary.random_skips ~seed ~topology ~t_budget:t ~window:30.0)
  | "crash" ->
    Ok (Adversary.crash_random ~seed ~t ~at:20.0 ~s:topology.Topology.servers)
  | other -> Error (Printf.sprintf "unknown adversary %S (none|skips|crash)" other)

let sim protocol s t w r seed ops adversary_kind =
  match find_protocol protocol with
  | None ->
    Printf.eprintf "unknown protocol %S\n" protocol;
    exit 1
  | Some register ->
    let topology = Topology.make ~servers:s ~writers:w ~readers:r in
    (match adversary_of_kind adversary_kind ~topology ~t ~seed with
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
    | Ok adversary ->
      let plans =
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
      in
      let v =
        run_and_check ~seed ~register ~s ~t ~w ~r
          ~adversary:(Adversary.apply adversary) plans
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
      if v.consistency <> Consistency.Atomic then exit 2)

let sim_cmd =
  let ops =
    Arg.(value & opt int 3 & info [ "ops" ] ~docv:"N" ~doc:"Writes per writer.")
  in
  let adversary =
    Arg.(value & opt string "none"
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
    | name -> (
      match
        List.find_opt (fun st -> st.Strategy.name = name) Strategy.natural
      with
      | Some st -> st
      | None ->
        Printf.eprintf "unknown strategy %S; available: %s, seeded, wild\n" name
          (String.concat ", "
             (List.map (fun st -> st.Strategy.name) Strategy.natural));
        exit 1)
  in
  if explain then print_string (Report.explain ~s strategy)
  else begin
    Printf.printf "strategy: %s, S=%d\n\n" strategy.Strategy.name s;
    let finding, stats = W1r2_theorem.run ~s strategy in
    Format.printf "%a@." W1r2_theorem.pp_finding finding;
    Printf.printf "\ncritical server i1: %s, links verified: %d (failed %d)\n"
      (match stats.W1r2_theorem.i1 with Some i -> string_of_int i | None -> "-")
      stats.W1r2_theorem.links_checked stats.W1r2_theorem.links_failed
  end;
  let finding, _ = W1r2_theorem.run ~s strategy in
  if not (W1r2_theorem.found_violation finding) then exit 2

let impossibility_cmd =
  let strategy =
    Arg.(value & opt string "majority-last"
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

let record protocol s t w r seed ops path =
  match find_protocol protocol with
  | None ->
    Printf.eprintf "unknown protocol %S\n" protocol;
    exit 1
  | Some register ->
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
    (match Atomicity.check h with
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
    if not (Atomicity.is_atomic h) then exit 2

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

let exhaustive protocol s w r max_runs domains =
  match find_protocol protocol with
  | None ->
    Printf.eprintf "unknown protocol %S\n" protocol;
    exit 1
  | Some register ->
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

let hunt protocol s t w r budget domains =
  match find_protocol protocol with
  | None ->
    Printf.eprintf "unknown protocol %S\n" protocol;
    exit 1
  | Some register ->
    Printf.printf "hunting for an atomicity violation of %s at S=%d t=%d W=%d R=%d...\n"
      (Registry.name register) s t w r;
    let pool = pool_of_domains domains in
    let found, runs =
      if Pool.domains pool > 1 then
        Hunter.hunt ~seeds_per_shape:budget ~pool ~register ~s ~t ~w ~r ()
      else Hunter.hunt ~seeds_per_shape:budget ~register ~s ~t ~w ~r ()
    in
    (match found with
    | Some f ->
      Format.printf "%a@." Hunter.pp_found f;
      exit 2
    | None ->
      Printf.printf
        "no violation in %d runs across %d schedule shapes (evidence of \
         possibility, not proof)\n"
        runs
        (List.length Hunter.all_shapes))

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

let serve host port id shards =
  if shards < 1 then begin
    Printf.eprintf "mwreg serve: --domains must be >= 1\n";
    exit 2
  end;
  let server = Live.Server.start ~host ~port ~id ~shards () in
  Printf.printf "mwreg server %d listening on %s:%d (%d reactor shard%s)\n%!"
    id host (Live.Server.port server) shards
    (if shards = 1 then "" else "s");
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
  let shards =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"Reactor event-loop shards: 1 runs the whole reactor on a \
                   single thread; N > 1 spawns one domain per shard, each \
                   owning a disjoint set of accepted connections.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run one register server daemon over TCP (kill the process to \
             crash it).")
    Term.(const serve $ host $ port $ id $ shards)

(* ------------------------------------------------------------------ *)
(* live                                                                 *)
(* ------------------------------------------------------------------ *)

let parse_hostport spec =
  match String.rindex_opt spec ':' with
  | None -> Error (Printf.sprintf "bad address %S (want HOST:PORT)" spec)
  | Some i -> (
    let host = String.sub spec 0 i in
    match
      ( (try Some (Unix.inet_addr_of_string host) with Failure _ -> None),
        int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1))
      )
    with
    | Some addr, Some port -> Ok (Unix.ADDR_INET (addr, port))
    | None, _ -> Error (Printf.sprintf "bad host in %S" spec)
    | _, None -> Error (Printf.sprintf "bad port in %S" spec))

let parse_kill spec =
  match String.index_opt spec '@' with
  | None -> Error (Printf.sprintf "bad kill spec %S (want IDX@SEC)" spec)
  | Some i -> (
    match
      ( int_of_string_opt (String.sub spec 0 i),
        float_of_string_opt
          (String.sub spec (i + 1) (String.length spec - i - 1)) )
    with
    | Some idx, Some at -> Ok (at, 0, idx) (* the one group's server *)
    | _ -> Error (Printf.sprintf "bad kill spec %S (want IDX@SEC)" spec))

let pp_ms ppf (st : Stats.summary) =
  Format.fprintf ppf
    "n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f (ms)" st.Stats.count
    (1e3 *. st.Stats.mean) (1e3 *. st.Stats.p50) (1e3 *. st.Stats.p95)
    (1e3 *. st.Stats.p99) (1e3 *. st.Stats.max)

(* --check live|batch|off, shared by live / kv / chaos. *)
let parse_check_mode = function
  | "batch" -> Ok `Batch
  | "live" -> Ok `Live
  | "off" -> Ok `Off
  | other ->
    Error (Printf.sprintf "unknown check mode %S (live|batch|off)" other)

let check_mode_arg =
  Arg.(value & opt string "batch"
       & info [ "check" ] ~docv:"MODE"
           ~doc:"Atomicity checking: $(b,batch) checks the recorded \
                 history after the run (the default), $(b,live) streams \
                 every completed operation through the online checker \
                 while the run is in flight — O(window) memory, \
                 violations reported the moment a verdict turns — and \
                 $(b,off) disables checking.")

(* --geo PROFILE, shared by live / kv. *)
let geo_arg =
  Arg.(value & opt (some string) None
       & info [ "geo" ] ~docv:"PROFILE"
           ~doc:"Shape every client<->server link with the named WAN/geo \
                 profile (see $(b,mwreg geo --list)): per-region-pair base \
                 delay plus jitter on both legs, compiled from the same \
                 matrices as the simulator's latency model for that \
                 profile.  The round-trip timeout is raised to cover the \
                 profile's worst RTT when needed.")

(* Mid-run hook: a verdict turning is worth a line the moment it
   happens, not minutes later when the run drains. *)
let announce_violation key w =
  Format.printf "live check  : key %s VIOLATED mid-run: %a@." key Witness.pp w

(* Prints the streaming checker's report; returns whether every key
   stayed atomic. *)
let report_online (r : Live.Check_sink.report) =
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
  Live.Check_sink.atomic r

(* One protocol against one (fresh or attached) single-group cluster.
   Returns true when the recorded history is atomic. *)
let live_one ?faults ?max_rt_retries ~register ~cluster ~spec ~kill_at
    ~rt_timeout ~check () =
  let res =
    Kv.Session.run ?faults ?max_rt_retries ~kill_at ~rt_timeout
      ~live_check:(check = `Live) ~on_violation:announce_violation ~register
      ~cluster spec
  in
  let h = Kv.Session.history res in
  let ops = History.length h in
  let servers = Kv.Cluster.group cluster 0 in
  Format.printf "protocol    : %s@." (Registry.name register);
  Format.printf "cluster     : %s S=%d t=%d (quorum %d), mux transport@."
    (if Live.Cluster.local servers then "loopback" else "remote")
    (Live.Cluster.s servers)
    (Live.Cluster.tolerance servers)
    (Live.Cluster.quorum servers);
  Format.printf "ops         : %d in %.3fs (%.0f ops/s)@." ops
    res.Kv.Session.duration
    (float_of_int ops /. res.Kv.Session.duration);
  Format.printf "round trips : write %.2f/op, read %.2f/op, late replies %d@."
    res.Kv.Session.write_rounds res.Kv.Session.read_rounds
    res.Kv.Session.late;
  Format.printf "writes      : %a@." pp_ms (Stats.writes h);
  Format.printf "reads       : %a@." pp_ms (Stats.reads h);
  let running = Live.Cluster.running servers in
  (match
     List.filter
       (fun i -> not (List.mem i running))
       (List.init (Live.Cluster.s servers) Fun.id)
   with
  | [] -> ()
  | killed ->
    Format.printf "killed      : %s@."
      (String.concat ", " (List.map string_of_int killed)));
  if res.Kv.Session.starved > 0 then
    Format.printf "starved     : %d client(s) gave up without a quorum@."
      res.Kv.Session.starved;
  let ok =
    match (check, res.Kv.Session.online) with
    | `Off, _ ->
      Format.printf "atomicity   : not checked (--check off)@.";
      true
    | `Live, Some r ->
      let ok = report_online r in
      Format.printf "atomicity   : %s (streaming verdict)@."
        (if ok then "OK" else "VIOLATED");
      ok
    | `Live, None -> true (* unreachable: live_check was requested *)
    | `Batch, _ -> (
      match Atomicity.check h with
      | Ok () ->
        Format.printf "atomicity   : OK@.";
        true
      | Error wit ->
        Format.printf "atomicity   : VIOLATED %a@." Witness.pp wit;
        false)
  in
  Format.printf "@.";
  ok

let live protocol all s tol w r ops connect kills think rt_timeout
    server_domains geo check =
  let check =
    match parse_check_mode check with
    | Ok c -> c
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  in
  let geo_profile =
    match geo with
    | None -> None
    | Some name -> (
      match Live.Geo.find name with
      | Some p -> Some p
      | None ->
        Printf.eprintf "unknown geo profile %S (profiles: %s)\n" name
          (String.concat ", " (Live.Geo.names ()));
        exit 1)
  in
  if Option.is_some geo_profile && connect <> [] then begin
    Printf.eprintf
      "--geo shapes the servers' reply legs too, so it needs a loopback \
       cluster (drop --connect)\n";
    exit 1
  end;
  if server_domains < 1 then begin
    Printf.eprintf "--server-domains must be >= 1\n";
    exit 1
  end;
  if server_domains > 1 && connect <> [] then begin
    Printf.eprintf
      "--server-domains shards loopback servers; an attached cluster \
       (--connect) picked its own shard count at startup\n";
    exit 1
  end;
  let registers =
    if all then Ok Registry.all
    else
      match find_protocol protocol with
      | Some register -> Ok [ register ]
      | None -> Error (Printf.sprintf "unknown protocol %S" protocol)
  in
  let addrs =
    List.fold_right
      (fun spec acc ->
        Result.bind acc (fun l ->
            Result.map (fun a -> a :: l) (parse_hostport spec)))
      connect (Ok [])
  in
  let kill_at =
    List.fold_right
      (fun spec acc ->
        Result.bind acc (fun l ->
            Result.map (fun k -> k :: l) (parse_kill spec)))
      kills (Ok [])
  in
  match (registers, addrs, kill_at) with
  | Error msg, _, _ | _, Error msg, _ | _, _, Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 1
  | Ok _, Ok (_ :: _), Ok (_ :: _) ->
    Printf.eprintf "--kill needs a loopback cluster (drop --connect)\n";
    exit 1
  | Ok (_ :: _ :: _), Ok (_ :: _), _ ->
    Printf.eprintf
      "--all needs a fresh cluster per protocol: drop --connect\n";
    exit 1
  | Ok registers, Ok addrs, Ok kill_at ->
    let run_one register =
      let w =
        match Registry.max_writers register with
        | Some m -> min m w
        | None -> w
      in
      (* Geo profiles compile against the session's node numbering
         (servers 0..s-1, then the w+r clients), so the plan is built
         after the writer clamp. *)
      let faults =
        Option.map
          (fun p ->
            Live.Geo.plan p ~s ~clients:(List.init (w + r) (fun i -> s + i)))
          geo_profile
      in
      let rt_timeout =
        match geo_profile with
        | Some p -> Float.max rt_timeout (8.0 *. Live.Geo.max_rtt p)
        | None -> rt_timeout
      in
      (* A fresh cluster per protocol: replica state must not leak
         between runs (a stale value surfacing in a read would be an
         artifact, not a violation). *)
      let cluster =
        match addrs with
        | [] ->
          Kv.Cluster.start ?faults ~shards:server_domains ~groups:1 ~s ~tol ()
        | addrs -> Kv.Cluster.connect ~addrs:(Array.of_list addrs) ~tol
      in
      Fun.protect
        ~finally:(fun () -> Kv.Cluster.shutdown cluster)
        (fun () ->
          let spec =
            Kv.Session.register_spec ~think ~writers:w ~readers:r ops
          in
          live_one ?faults ~register ~cluster ~spec ~kill_at ~rt_timeout
            ~check ())
    in
    let ok = List.for_all run_one registers in
    if not ok then exit 2

let live_cmd =
  let all =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Run every registered protocol (smoke mode; single-writer \
                   protocols are clamped to W=1).")
  in
  let ops =
    Arg.(value & opt int 20 & info [ "ops" ] ~docv:"N"
         ~doc:"Writes per writer (each reader does 2N reads).")
  in
  let connect =
    Arg.(value & opt_all string []
         & info [ "connect" ] ~docv:"HOST:PORT"
             ~doc:"Use an already-running server (repeat once per server) \
                   instead of spawning a loopback cluster.")
  in
  let kills =
    Arg.(value & opt_all string []
         & info [ "kill" ] ~docv:"IDX@SEC"
             ~doc:"Kill server IDX after SEC seconds (repeatable; loopback \
                   only).")
  in
  let think =
    Arg.(value & opt float 0.0 & info [ "think" ] ~docv:"SEC"
         ~doc:"Think time between a client's operations.")
  in
  let rt_timeout =
    Arg.(value & opt float 1.0 & info [ "rt-timeout" ] ~docv:"SEC"
         ~doc:"Per-round-trip timeout before re-broadcasting.")
  in
  let server_domains =
    Arg.(value & opt int 1
         & info [ "server-domains" ] ~docv:"N"
             ~doc:"Reactor shards per loopback server: 1 runs each server's \
                   event loop on one thread, N > 1 spawns one domain per \
                   shard (incompatible with --connect).")
  in
  Cmd.v
    (Cmd.info "live"
       ~doc:"Run a register protocol over real TCP sockets and check the \
             recorded history for atomicity.")
    Term.(const live $ protocol_arg $ all $ s_arg $ t_arg $ w_arg $ r_arg
          $ ops $ connect $ kills $ think $ rt_timeout
          $ server_domains $ geo_arg $ check_mode_arg)

(* ------------------------------------------------------------------ *)
(* kv                                                                   *)
(* ------------------------------------------------------------------ *)

let kv protocol groups s tol clients keys ops dist theta mix seed sample think
    rt_timeout geo check =
  let check =
    match parse_check_mode check with
    | Ok c -> c
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  in
  let geo_profile =
    match geo with
    | None -> None
    | Some name -> (
      match Live.Geo.find name with
      | Some p -> Some p
      | None ->
        Printf.eprintf "unknown geo profile %S (profiles: %s)\n" name
          (String.concat ", " (Live.Geo.names ()));
        exit 1)
  in
  let register =
    match find_protocol protocol with
    | Some r -> Ok r
    | None -> Error (Printf.sprintf "unknown protocol %S" protocol)
  in
  let dist =
    match dist with
    | "zipfian" -> Ok (Ycsb.Zipfian theta)
    | "uniform" -> Ok Ycsb.Uniform
    | other -> Error (Printf.sprintf "unknown dist %S (zipfian|uniform)" other)
  in
  let mix =
    match Ycsb.mix_of_string mix with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "unknown mix %S (A|B|C)" mix)
  in
  match (register, dist, mix) with
  | Error msg, _, _ | _, Error msg, _ | _, _, Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 1
  | Ok register, Ok dist, Ok mix ->
    (* KV client [i] is node [s + i] in every shard group, so one geo
       plan covers all the per-group planes. *)
    let faults =
      Option.map
        (fun p ->
          Live.Geo.plan p ~s ~clients:(List.init clients (fun i -> s + i)))
        geo_profile
    in
    let rt_timeout =
      match geo_profile with
      | Some p -> Float.max rt_timeout (8.0 *. Live.Geo.max_rtt p)
      | None -> rt_timeout
    in
    let cluster = Kv.Cluster.start ?faults ~groups ~s ~tol () in
    Fun.protect
      ~finally:(fun () -> Kv.Cluster.shutdown cluster)
      (fun () ->
        let res =
          Kv.Session.run ?faults ~rt_timeout ~register
            ~live_check:(check = `Live) ~on_violation:announce_violation
            ~cluster
            {
              Kv.Session.roles = Kv.Session.Mixed clients;
              ops_per_client = ops;
              keys;
              dist;
              mix;
              seed;
              sample_keys = sample;
              think;
            }
        in
        Printf.printf
          "%s over %d shard group(s) (S=%d t=%d per group), %d clients, \
           %d keys, %s/%s\n"
          (Registry.name register) groups s tol clients keys
          (Ycsb.dist_name dist) (Ycsb.mix_name mix);
        Printf.printf
          "  %d ops in %.3fs  (%.0f ops/s, %d distinct keys touched)\n"
          res.Kv.Session.ops res.Kv.Session.duration
          res.Kv.Session.throughput res.Kv.Session.keys_touched;
        let ms name (st : Stats.summary) =
          Printf.printf "  %-6s p50 %.2fms  p95 %.2fms  p99 %.2fms\n" name
            (1e3 *. st.Stats.p50) (1e3 *. st.Stats.p95) (1e3 *. st.Stats.p99)
        in
        ms "all" res.Kv.Session.all_lat;
        ms "read" res.Kv.Session.read_lat;
        ms "write" res.Kv.Session.write_lat;
        Printf.printf "  per-group ops: [%s]\n"
          (String.concat "; "
             (Array.to_list
                (Array.map string_of_int res.Kv.Session.group_ops)));
        if res.Kv.Session.starved > 0 || res.Kv.Session.dropped > 0 then
          Printf.printf "  starved clients %d, dropped replies %d\n"
            res.Kv.Session.starved res.Kv.Session.dropped;
        let all_atomic =
          match (check, res.Kv.Session.online) with
          | `Off, _ ->
            Printf.printf "  atomicity: not checked (--check off)\n";
            true
          | `Live, Some r ->
            flush stdout;
            report_online r
          | `Live, None -> true (* unreachable: live_check was requested *)
          | `Batch, _ ->
            Printf.printf "  sampled-key verdicts:\n";
            List.for_all
              (fun v ->
                Printf.printf "    %-14s %4d ops  %s\n" v.Kv.Session.vkey
                  v.Kv.Session.vops
                  (if v.Kv.Session.atomic then "atomic" else "NOT ATOMIC");
                v.Kv.Session.atomic)
              res.Kv.Session.verdicts
        in
        if not all_atomic then exit 2)

let kv_cmd =
  (* Default to the unconditionally-atomic multi-writer ABD: the KV
     driver reports r = clients, and a default fast-read protocol would
     silently sit outside its R < S/t - 2 regime at any realistic client
     count. *)
  let protocol =
    Arg.(value & opt string "w2r2"
         & info [ "protocol"; "p" ] ~docv:"NAME"
             ~doc:"Register protocol run per key (registry substring \
                   match, as in $(b,sim)).")
  in
  let groups =
    Arg.(value & opt int 2 & info [ "groups"; "g" ] ~docv:"G"
         ~doc:"Shard groups (each its own S-server quorum system).")
  in
  let clients =
    Arg.(value & opt int 8 & info [ "clients"; "c" ] ~docv:"C"
         ~doc:"Closed-loop client threads (each both writes and reads).")
  in
  let keys =
    Arg.(value & opt int 1000 & info [ "keys"; "k" ] ~docv:"K"
         ~doc:"Keyspace size.")
  in
  let ops =
    Arg.(value & opt int 50 & info [ "ops" ] ~docv:"N"
         ~doc:"Operations per client.")
  in
  let dist =
    Arg.(value & opt string "zipfian" & info [ "dist" ] ~docv:"DIST"
         ~doc:"Key popularity: $(b,zipfian) (rank 0 hottest) or \
               $(b,uniform).")
  in
  let theta =
    Arg.(value & opt float Ycsb.default_theta
         & info [ "theta" ] ~docv:"THETA"
             ~doc:"Zipfian skew parameter (0 < THETA < 1).")
  in
  let mix =
    Arg.(value & opt string "A" & info [ "mix" ] ~docv:"MIX"
         ~doc:"YCSB operation mix: $(b,A) 50/50, $(b,B) 95% reads, \
               $(b,C) read-only.")
  in
  let sample =
    Arg.(value & opt int 4 & info [ "sample" ] ~docv:"N"
         ~doc:"Hottest key ranks whose histories are recorded and \
               atomicity-checked.")
  in
  let think =
    Arg.(value & opt float 0.0 & info [ "think" ] ~docv:"SEC"
         ~doc:"Think time between a client's operations.")
  in
  let rt_timeout =
    Arg.(value & opt float 1.0 & info [ "rt-timeout" ] ~docv:"SEC"
         ~doc:"Per-round-trip timeout before re-broadcasting.")
  in
  Cmd.v
    (Cmd.info "kv"
       ~doc:"Drive a YCSB-shaped workload against a sharded multi-register \
             keyspace and atomicity-check the sampled keys.")
    Term.(const kv $ protocol $ groups $ s_arg $ t_arg $ clients $ keys
          $ ops $ dist $ theta $ mix $ seed_arg $ sample $ think
          $ rt_timeout $ geo_arg $ check_mode_arg)

(* ------------------------------------------------------------------ *)
(* chaos                                                                *)
(* ------------------------------------------------------------------ *)

let chaos protocol scenario seed drop delay duplicate ops s tol server_domains
    check =
  if server_domains < 1 then begin
    Printf.eprintf "--server-domains must be >= 1\n";
    exit 1
  end;
  let check =
    match parse_check_mode check with
    | Ok c -> c
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  in
  match scenario with
  | "soak" -> (
    match find_protocol protocol with
    | None ->
      Printf.eprintf "unknown protocol %S\n" protocol;
      exit 1
    | Some register ->
      let sk =
        Kv.Chaos.soak ~seed ~drop ~delay ~duplicate ~s ~tol ~ops
          ~server_shards:server_domains ~live_check:(check = `Live)
          ~on_violation:announce_violation ~register ()
      in
      let res = sk.Kv.Chaos.result in
      Format.printf "protocol    : %s@." (Registry.name register);
      Format.printf
        "faults      : drop %.2f, delay <= %.3fs, duplicate %.2f (seed %d)@."
        drop delay duplicate seed;
      Format.printf "restart     : %s@."
        (if sk.Kv.Chaos.restarted then
           "one server killed mid-run, restarted with recovered state"
         else "none");
      Format.printf "ops         : %d in %.3fs; retries %d, late %d@."
        (History.length (Kv.Session.history res))
        res.Kv.Session.duration res.Kv.Session.retries res.Kv.Session.late;
      Format.printf "round trips : write %.2f/op, read %.2f/op@."
        res.Kv.Session.write_rounds res.Kv.Session.read_rounds;
      if res.Kv.Session.starved > 0 then
        Format.printf "starved     : %d client(s) gave up without a quorum@."
          res.Kv.Session.starved;
      let atomic =
        match (check, res.Kv.Session.online) with
        | `Off, _ ->
          Format.printf "atomicity   : not checked (--check off)@.";
          true
        | `Live, Some r ->
          let ok = report_online r in
          Format.printf "atomicity   : %s (streaming verdict)@."
            (if ok then "OK" else "VIOLATED");
          ok
        | `Live, None -> true (* unreachable: live_check was requested *)
        | `Batch, _ ->
          Format.printf "atomicity   : %s@."
            (if sk.Kv.Chaos.atomic then "OK" else "VIOLATED");
          sk.Kv.Chaos.atomic
      in
      Format.printf "theory      : %s@."
        (if sk.Kv.Chaos.expected_atomic then
           "possible regime — chaos must not break it"
         else "impossible regime — no guarantee");
      if sk.Kv.Chaos.expected_atomic && not atomic then exit 2)
  | ("recover" | "fresh") as m ->
    let mode = if m = "recover" then `Recover else `Fresh in
    let o =
      Kv.Chaos.restart_scenario ~server_shards:server_domains ~mode ()
    in
    Format.printf
      "scenario    : acknowledged write on quorum {0,1}; server 0 killed, \
       restarted %s; read from quorum {0,2}@."
      (match mode with
      | `Recover -> "with its recovered snapshot"
      | `Fresh -> "with fresh (empty) state");
    Format.printf "read        : %s@."
      (match o.Kv.Chaos.read_value with
      | Some v -> string_of_int v
      | None -> "(no response)");
    (match o.Kv.Chaos.witness with
    | Some w -> Format.printf "witness     : %s@." w
    | None -> ());
    Format.printf "atomicity   : %s@."
      (if o.Kv.Chaos.atomic then "OK" else "VIOLATED");
    let as_expected =
      match mode with
      | `Recover -> o.Kv.Chaos.atomic
      | `Fresh -> (not o.Kv.Chaos.atomic) && o.Kv.Chaos.witness <> None
    in
    Format.printf "verdict     : %s@."
      (if as_expected then "as the crash-stop model predicts"
       else "UNEXPECTED");
    if not as_expected then exit 2
  | other ->
    Printf.eprintf "unknown scenario %S (soak|recover|fresh)\n" other;
    exit 1

let chaos_cmd =
  let scenario =
    Arg.(value & opt string "soak"
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:"$(b,soak): seeded drop/delay/duplicate storm plus a \
                   kill-and-recover restart under a full workload. \
                   $(b,recover) / $(b,fresh): the deterministic \
                   restart-fidelity script — recover must stay atomic, \
                   fresh must yield a checker witness.")
  in
  let drop =
    Arg.(value & opt float 0.08 & info [ "drop" ] ~docv:"P"
         ~doc:"Per-frame drop probability (0 disables).")
  in
  let delay =
    Arg.(value & opt float 0.03 & info [ "delay" ] ~docv:"SEC"
         ~doc:"Max per-frame delay; each frame is delayed with probability \
               0.25 (0 disables).")
  in
  let duplicate =
    Arg.(value & opt float 0.1 & info [ "duplicate" ] ~docv:"P"
         ~doc:"Per-frame duplication probability (0 disables).")
  in
  let ops =
    Arg.(value & opt int 8 & info [ "ops" ] ~docv:"N"
         ~doc:"Writes per writer in the soak (each reader does 2N reads).")
  in
  let server_domains =
    Arg.(value & opt int 1
         & info [ "server-domains" ] ~docv:"N"
             ~doc:"Reactor shards per server: N > 1 puts the fault timers \
                   and the kill/restart path under a sharded reactor.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Inject a deterministic seeded fault plan (drops, delays, \
             duplicates, truncations, server restarts) into a live cluster \
             and check the recorded history for atomicity.")
    Term.(const chaos $ protocol_arg $ scenario $ seed_arg $ drop
          $ delay $ duplicate $ ops $ s_arg $ t_arg $ server_domains
          $ check_mode_arg)

(* ------------------------------------------------------------------ *)
(* geo                                                                  *)
(* ------------------------------------------------------------------ *)

let geo_run list_profiles protocol profile s tol w r ops outage check =
  if list_profiles then begin
    List.iter
      (fun p -> print_string (Live.Geo.describe p); print_newline ())
      Live.Geo.profiles;
    exit 0
  end;
  let check =
    match parse_check_mode check with
    | Ok c -> c
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  in
  let profile =
    match Live.Geo.find profile with
    | Some p -> p
    | None ->
      Printf.eprintf "unknown geo profile %S (profiles: %s)\n" profile
        (String.concat ", " (Live.Geo.names ()));
      exit 1
  in
  match find_protocol protocol with
  | None ->
    Printf.eprintf "unknown protocol %S\n" protocol;
    exit 1
  | Some register ->
    let w =
      match Registry.max_writers register with
      | Some m -> min m w
      | None -> w
    in
    let clients = List.init (w + r) (fun i -> s + i) in
    (* Under an outage the timeout must stay short so cut-off clients
       retry their way across the window instead of stalling on one
       round trip; without one it only needs to cover the worst RTT. *)
    let rt_timeout, max_rt_retries =
      if outage then (Float.max 0.3 (4.0 *. Live.Geo.max_rtt profile), 10)
      else (Float.max 1.0 (8.0 *. Live.Geo.max_rtt profile), 3)
    in
    let extra =
      if not outage then []
      else begin
        let out_region = Live.Geo.region_count profile - 1 in
        let cut = Live.Geo.region_nodes profile ~s ~clients out_region in
        let rest =
          List.filter (fun n -> not (List.mem n cut)) (List.init s Fun.id)
          @ List.filter (fun n -> not (List.mem n cut)) clients
        in
        Format.printf "outage      : region %s (nodes %s) cut 0.05s..0.30s@."
          (Live.Geo.region_name profile out_region)
          (String.concat "," (List.map string_of_int cut));
        [ Live.Faults.partition ~from_:0.05 ~until:0.30 [ cut; rest ] ]
      end
    in
    let faults = Live.Geo.plan ~extra profile ~s ~clients in
    print_string (Live.Geo.describe profile);
    Format.printf "@.";
    let cluster = Kv.Cluster.start ~faults ~groups:1 ~s ~tol () in
    let ok =
      Fun.protect
        ~finally:(fun () -> Kv.Cluster.shutdown cluster)
        (fun () ->
          let spec = Kv.Session.register_spec ~writers:w ~readers:r ops in
          live_one ~faults ~max_rt_retries ~register ~cluster ~spec
            ~kill_at:[] ~rt_timeout ~check ())
    in
    if not ok then exit 2

let geo_cmd =
  let list_profiles =
    Arg.(value & flag
         & info [ "list" ]
             ~doc:"Print every named profile's region/delay/jitter matrices \
                   and exit.")
  in
  let profile =
    Arg.(value & opt string "wan-3region"
         & info [ "profile" ] ~docv:"PROFILE"
             ~doc:"Named WAN/geo profile to run under (see $(b,--list)).")
  in
  let ops =
    Arg.(value & opt int 20 & info [ "ops" ] ~docv:"N"
         ~doc:"Writes per writer (each reader does 2N reads).")
  in
  let outage =
    Arg.(value & flag
         & info [ "outage" ]
             ~doc:"Compose the profile with a partition that cuts the last \
                   region off from 0.05s to 0.30s into the run: its clients \
                   must ride the window out on retries while the majority \
                   side keeps committing, and the history must stay atomic.")
  in
  Cmd.v
    (Cmd.info "geo"
       ~doc:"Run a register protocol over a live cluster whose links are \
             shaped by a named WAN/geo profile — the same per-region-pair \
             delay/jitter matrices the simulator's latency model uses — \
             optionally composing a region outage on top.")
    Term.(const geo_run $ list_profiles $ protocol_arg $ profile $ s_arg
          $ t_arg $ w_arg $ r_arg $ ops $ outage $ check_mode_arg)

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
            live_cmd; kv_cmd; geo_cmd; chaos_cmd ]))
