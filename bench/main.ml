(* The benchmark harness: regenerates every table and figure of the
   paper (see DESIGN.md §4 for the experiment index) and finishes with
   Bechamel micro-benchmarks of the library's hot paths.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe -- t1 f9     -- selected experiments
     dune exec bench/main.exe -- micro     -- only the micro-benchmarks

   Absolute numbers are simulator-relative; the reproduction targets are
   the *shapes*: which design points admit atomic implementations, the
   1-vs-2 round-trip latency gap, and the R < S/t − 2 crossover. *)

open Protocol
open Workload

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

(* Flush per row: a sweep row can take minutes at the contended client
   counts, and a buffered table is useless for watching progress (or
   attributing a hang) from outside. *)
let row fmt = Printf.printf (fmt ^^ "%!")

(* The domain pool shared by the fan-out experiments, set from
   --domains / MWREG_DOMAINS in [main].  Every task builds its own
   engine, RNG and history and results merge in task order, so the
   tables are byte-identical at any domain count. *)
let pool = ref (Parallel.Pool.create ~domains:1 ())

(* ------------------------------------------------------------------ *)
(* T1: Table 1 — the design-space matrix                                *)
(* ------------------------------------------------------------------ *)

let t1_configs = [ (5, 1, 2, 2); (7, 3, 2, 2); (6, 1, 3, 3); (9, 2, 2, 2) ]

(* One Table-1 cell: (runs, broken) over shapes × seeds plus the
   certificate-starvation attack.  The shape × seed runs are independent
   and fan out over [pool]; counts merge in task order. *)
let t1_cell pool ~register ~s ~t ~w ~r =
  let shapes = Hunter.[ Benign; Skips; Crash; Inversion ] in
  let tasks =
    List.concat_map
      (fun shape -> List.init 50 (fun i -> (shape, i + 1)))
      shapes
  in
  let verdicts =
    Parallel.Pool.map pool
      (fun (shape, seed) ->
        Checker.Atomicity.is_atomic
          (Hunter.run ~register ~s ~t ~w ~r ~seed shape).Runtime.history)
      tasks
  in
  let runs = ref 0 and broken = ref 0 in
  List.iter
    (fun atomic ->
      incr runs;
      if not atomic then incr broken)
    verdicts;
  (* The certificate-starvation attack, where applicable. *)
  (match Registers.Registry.design_point register with
  | Quorums.Bounds.W2R1 | Quorums.Bounds.W1R1 | Quorums.Bounds.W2R2 ->
    incr runs;
    let v = Threshold.attack ~register ~s ~t ~r in
    if not v.Threshold.atomic then incr broken
  | Quorums.Bounds.W1R2 -> ());
  (!runs, !broken)

(* The full T1 measurement sweep without the printing, for wall-clock
   comparisons; returns total (runs, broken). *)
let t1_sweep pool =
  List.fold_left
    (fun (runs, broken) register ->
      List.fold_left
        (fun (runs, broken) (s, t, w, r) ->
          let cell_runs, cell_broken = t1_cell pool ~register ~s ~t ~w ~r in
          (runs + cell_runs, broken + cell_broken))
        (runs, broken) t1_configs)
    (0, 0) Registers.Registry.multi_writer

let table1 () =
  section "T1. Table 1: fast implementations of multi-writer atomic registers";
  Printf.printf
    "Each cell: checker verdicts over randomized + adversarial schedules.\n\
     'atomic' = no violation found in any run; 'VIOLATED(n)' = n runs broken.\n\
     Theoretical column from the paper's Table 1 predicates.\n\n";
  row "%-28s %-16s %-12s %-12s %s\n" "protocol" "config (S,t,W,R)" "theory"
    "measured" "runs";
  row "%s\n" (String.make 86 '-');
  List.iter
    (fun register ->
      let dp = Registers.Registry.design_point register in
      List.iter
        (fun (s, t, w, r) ->
          let predicted = Quorums.Bounds.possible dp ~s ~t ~w ~r in
          let runs, broken = t1_cell !pool ~register ~s ~t ~w ~r in
          let measured =
            if broken = 0 then "atomic"
            else Printf.sprintf "VIOLATED(%d)" broken
          in
          row "%-28s S=%d t=%d W=%d R=%d  %-12s %-12s %d\n"
            (Registers.Registry.name register) s t w r
            (if predicted then "possible" else "impossible")
            measured runs)
        t1_configs;
      row "%s\n" (String.make 86 '-'))
    Registers.Registry.multi_writer;
  Printf.printf
    "Reading: possible rows stay atomic under every schedule; impossible rows\n\
     are broken by at least one adversarial schedule (the theory says no\n\
     schedule-proof implementation exists; a violation witness confirms it).\n"

(* ------------------------------------------------------------------ *)
(* F2: the latency/consistency lattice                                  *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "F2. Fig. 2: the latency/consistency lattice of the algorithm schema";
  Printf.printf
    "S=5 t=1 W=2 R=2, constant 2.0 latency (so 1 RTT = 4.0 simulated ms).\n\
     Consistency graded on the atomic > regular > safe ladder, worst case\n\
     over benign + adversarial schedules.\n\n";
  row "%-28s %-8s %-12s %-12s %-14s %s\n" "protocol" "rounds" "write-lat"
    "read-lat" "consistency" "(design point)";
  row "%s\n" (String.make 88 '-');
  List.iter
    (fun register ->
      let dp = Registers.Registry.design_point register in
      let env =
        Env.make ~seed:1 ~latency:(Simulation.Latency.constant 2.0) ~s:5 ~t:1
          ~w:2 ~r:2 ()
      in
      let out =
        Runtime.run ~register ~env
          ~plans:(Hunter.mixed_plans ~w:2 ~r:2 ~ops:4) ()
      in
      let writes = Stats.writes out.Runtime.history in
      let reads = Stats.reads out.Runtime.history in
      (* Worst-case consistency over schedule shapes, fanned out per
         (shape, seed); min over the lattice is order-independent. *)
      let tasks =
        List.concat_map
          (fun shape -> List.init 40 (fun i -> (shape, i + 1)))
          [ `Benign; `Skips ]
      in
      let levels =
        Parallel.Pool.map !pool
          (fun (shape, seed) ->
            let latency = Simulation.Latency.uniform ~lo:1.0 ~hi:10.0 in
            let env = Env.make ~seed ~latency ~s:5 ~t:1 ~w:2 ~r:2 () in
            let topology = env.Env.topology in
            let adversary =
              match shape with
              | `Skips ->
                Adversary.random_skips ~seed ~topology ~t_budget:1 ~window:30.0
              | `Benign -> Adversary.none
            in
            let plans =
              if seed mod 4 = 0 then
                [
                  Runtime.write_plan ~writer:1 ~start_at:0.0 1;
                  Runtime.write_plan ~writer:0 ~start_at:100.0 1;
                  Runtime.read_plan ~reader:0 ~start_at:200.0 1;
                ]
              else Hunter.mixed_plans ~w:2 ~r:2 ~ops:3
            in
            let out =
              Runtime.run ~register ~env ~plans
                ~adversary:(Adversary.apply adversary) ()
            in
            Checker.Consistency.classify out.Runtime.history)
          tasks
      in
      let worst =
        List.fold_left
          (fun worst level ->
            if Checker.Consistency.compare_level level worst < 0 then level
            else worst)
          Checker.Consistency.Atomic levels
      in
      row "%-28s W%dR%d     %-12.1f %-12.1f %-14s %s\n"
        (Registers.Registry.name register)
        (Quorums.Bounds.write_rounds dp)
        (Quorums.Bounds.read_rounds dp)
        writes.Stats.mean reads.Stats.mean
        (Checker.Consistency.level_to_string worst)
        (Quorums.Bounds.design_point_to_string dp))
    Registers.Registry.multi_writer;
  Printf.printf
    "\nShape check: one-round operations cost half the latency of two-round\n\
     ones, and only the paper-legal design points keep 'atomic' in the worst\n\
     case — the Fig. 2 trade-off, measured.\n"

(* ------------------------------------------------------------------ *)
(* F3: the three-phase chain argument                                   *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section "F3. Fig. 3: Theorem 1 driver over the strategy space (chains α, β, Z)";
  let strategies =
    Impossibility.Strategy.natural
    @ List.init 200 (fun i -> Impossibility.Strategy.seeded (31 * i))
    @ List.init 100 (fun i -> Impossibility.Strategy.seeded_wild (97 * i))
  in
  let sizes = [ 3; 4; 5; 6; 8 ] in
  let total = ref 0 in
  let anchors = ref 0 in
  let disagreements = ref 0 in
  let unresolved = ref 0 in
  let link_checks = ref 0 in
  let link_failures = ref 0 in
  let i1_hist = Hashtbl.create 16 in
  List.iter
    (fun strat ->
      List.iter
        (fun s ->
          incr total;
          let finding, stats = Impossibility.W1r2_theorem.run ~s strat in
          link_checks := !link_checks + stats.Impossibility.W1r2_theorem.links_checked;
          link_failures := !link_failures + stats.Impossibility.W1r2_theorem.links_failed;
          (match stats.Impossibility.W1r2_theorem.i1 with
          | Some i1 ->
            Hashtbl.replace i1_hist i1 (1 + Option.value ~default:0 (Hashtbl.find_opt i1_hist i1))
          | None -> ());
          match finding with
          | Impossibility.W1r2_theorem.Anchor_violation _ -> incr anchors
          | Impossibility.W1r2_theorem.Read_disagreement _ -> incr disagreements
          | Impossibility.W1r2_theorem.Unresolved _ -> incr unresolved)
        sizes)
    strategies;
  row "strategies x sizes tried:      %d\n" !total;
  row "convicted via sequential anchor: %d\n" !anchors;
  row "convicted via read disagreement: %d\n" !disagreements;
  row "unresolved (must be 0):          %d\n" !unresolved;
  row "view-equality links verified:    %d (failures: %d)\n" !link_checks !link_failures;
  row "critical-server distribution (i1 -> count): ";
  List.iter
    (fun (i1, n) -> Printf.printf "%d->%d " i1 n)
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) i1_hist []));
  print_newline ();
  Printf.printf
    "Shape check: 100%% of candidate fast-write strategies are convicted with\n\
     a concrete violating execution — Theorem 1, executable.\n"

(* ------------------------------------------------------------------ *)
(* F45/F67: the horizontal and diagonal links                           *)
(* ------------------------------------------------------------------ *)

let fig4567 () =
  section "F4-F7. Figs. 4-7: horizontal & diagonal link verification";
  let checked = ref 0 and failed = ref 0 and special = ref 0 in
  for s = 3 to 10 do
    for i1 = 1 to s do
      let chain =
        Impossibility.Chain_beta.build ~s ~stem_swapped:(i1 - 1) ~critical:(i1 - 1)
      in
      for k = 0 to s - 1 do
        let step = Impossibility.Zigzag.build_step ~chain ~k in
        if step.Impossibility.Zigzag.temp_k = None then incr special;
        let report = Impossibility.Zigzag.verify_step ~chain step in
        incr checked;
        if not (Impossibility.Zigzag.link_ok report) then incr failed
      done
    done
  done;
  row "link instances verified: %d  (k = i1-1 special cases: %d)\n" !checked !special;
  row "failures: %d\n" !failed;
  Printf.printf
    "Each instance checks the five equalities of Figs. 4-7: R1(beta_k ~ temp_k),\n\
     R2(temp_k ~ gamma_k), R2(beta_k+1 ~ temp'_k), R1(temp'_k ~ gamma'_k),\n\
     gamma'_k = gamma_k.  All hold structurally, for every S, i1 and k.\n"

(* ------------------------------------------------------------------ *)
(* F8: the sieve                                                        *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  section "F8. Fig. 8: sieve-based elimination of affected servers";
  let strategies = [ Impossibility.Sieve.crucial_of_last_digits (); Impossibility.Sieve.crucial_majority ] in
  row "%-28s %-6s %-10s %-10s %-10s %s\n" "crucial strategy" "S" "flip%" "avg |S1|"
    "avg |S2|" "outcome";
  row "%s\n" (String.make 80 '-');
  List.iter
    (fun strat ->
      List.iter
        (fun (s, pct) ->
          let trials = 200 in
          let s1_sum = ref 0 and s2_sum = ref 0 in
          let critical = ref 0 and too_few = ref 0 and anchor = ref 0 in
          for seed = 1 to trials do
            let effect = Impossibility.Sieve.seeded_effect ~seed ~flip_probability_pct:pct in
            match Impossibility.Sieve.run ~s ~effect strat with
            | Impossibility.Sieve.Critical { sigma1; sigma2; _ } ->
              incr critical;
              s1_sum := !s1_sum + List.length sigma1;
              s2_sum := !s2_sum + List.length sigma2
            | Impossibility.Sieve.Too_few_unaffected { sigma1; sigma2 } ->
              incr too_few;
              s1_sum := !s1_sum + List.length sigma1;
              s2_sum := !s2_sum + List.length sigma2
            | Impossibility.Sieve.Anchor_violation _ -> incr anchor
          done;
          row "%-28s %-6d %-10d %-10.1f %-10.1f crit=%d too-few=%d anchor=%d\n"
            strat.Impossibility.Sieve.cname s pct
            (float_of_int !s1_sum /. float_of_int trials)
            (float_of_int !s2_sum /. float_of_int trials)
            !critical !too_few !anchor)
        [ (5, 20); (8, 20); (8, 50); (12, 30) ])
    strategies;
  Printf.printf
    "\nShape check: whenever at least 3 servers survive the sieve, the chain\n\
     argument still finds its critical server inside Σ2 — §4.2's claim.\n"

(* ------------------------------------------------------------------ *)
(* F9: the fast-read threshold                                          *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  section "F9. Fig. 9: fast-read possibility threshold R < S/t - 2";
  row "%-10s %-6s %-22s %-14s %-14s %s\n" "S,t" "R" "theory" "W2R1 (Alg 1&2)"
    "LS97 (W2R2)" "match";
  row "%s\n" (String.make 78 '-');
  let all_match = ref true in
  List.iter
    (fun (s, t) ->
      List.iter
        (fun v ->
          let slow =
            Threshold.attack ~register:Registers.Registry.abd_mwmr ~s ~t
              ~r:v.Threshold.r
          in
          let ok = Threshold.boundary_matches v && slow.Threshold.atomic in
          if not ok then all_match := false;
          row "S=%-2d t=%-2d R=%-4d %-22s %-14s %-14s %s\n" s t v.Threshold.r
            (if v.Threshold.predicted_possible then "fast read possible"
             else "impossible")
            (if v.Threshold.atomic then "atomic"
             else
               Printf.sprintf "VIOLATED(%s)"
                 (Option.value ~default:"?" v.Threshold.mwa_failure))
            (if slow.Threshold.atomic then "atomic" else "VIOLATED")
            (if ok then "yes" else "NO"))
        (Threshold.sweep ~register:Registers.Registry.fastread_w2r1 ~s ~t ~r_max:7))
    [ (6, 1); (9, 1); (8, 2); (9, 2); (12, 3) ];
  row "\nboundary reproduced at every configuration: %b\n" !all_match;
  (* §5.1: the bound does not depend on the write's round count. *)
  Printf.printf "\nWkR1 control (three-round writes, same fast read), S=6 t=1:\n";
  List.iter
    (fun v ->
      row "  %s\n" (Format.asprintf "%a" Threshold.pp_verdict v))
    (Threshold.sweep ~register:Registers.Registry.slow_write_w3r1 ~s:6 ~t:1
       ~r_max:6);
  Printf.printf
    "Shape check: Algorithm 1&2 is atomic exactly below R = S/t - 2 and the\n\
     certificate-starvation adversary produces the MWA4 new/old inversion at\n\
     and above it; the two-round read (LS97) is immune at every R; slowing\n\
     writes to three rounds moves the boundary not at all (s5.1).\n"

(* ------------------------------------------------------------------ *)
(* A1: Algorithm 1 & 2 — the Appendix-A properties                      *)
(* ------------------------------------------------------------------ *)

let alg12 () =
  section "A1. Algorithm 1 & 2: MWA0-MWA4 over randomized safe-regime runs";
  let runs = ref 0 in
  let failures = Hashtbl.create 8 in
  List.iter
    (fun (s, t, w, r) ->
      List.iter
        (fun shape ->
          for seed = 1 to 80 do
            incr runs;
            let latency =
              if seed mod 2 = 0 then Simulation.Latency.uniform ~lo:1.0 ~hi:10.0
              else Simulation.Latency.exponential ~mean:4.0
            in
            let env = Env.make ~seed ~latency ~s ~t ~w ~r () in
            let topology = env.Env.topology in
            let adversary =
              match shape with
              | `Benign -> Adversary.none
              | `Skips ->
                Adversary.random_skips ~seed ~topology ~t_budget:t ~window:30.0
              | `Crash -> Adversary.crash_random ~seed ~t ~at:20.0 ~s
            in
            let out =
              Runtime.run ~register:Registers.Registry.fastread_w2r1 ~env
                ~plans:(Hunter.mixed_plans ~w ~r ~ops:3)
                ~adversary:(Adversary.apply adversary) ()
            in
            List.iter
              (fun (name, _) ->
                Hashtbl.replace failures name
                  (1 + Option.value ~default:0 (Hashtbl.find_opt failures name)))
              (Checker.Mw_properties.failures
                 (Checker.Mw_properties.check out.Runtime.tagged))
          done)
        [ `Benign; `Skips; `Crash ])
    [ (5, 1, 2, 2); (6, 1, 3, 3); (9, 2, 2, 2); (7, 1, 2, 4) ];
  row "runs: %d\n" !runs;
  List.iter
    (fun p ->
      row "%s violations: %d\n" p
        (Option.value ~default:0 (Hashtbl.find_opt failures p)))
    [ "MWA0"; "MWA1"; "MWA2"; "MWA3"; "MWA4" ];
  Printf.printf
    "Shape check: zero violations of any Appendix-A property in the proven\n\
     regime R < S/t - 2, under crashes and within-budget skips.\n"

(* ------------------------------------------------------------------ *)
(* P1: the motivation — one round-trip is what you save                 *)
(* ------------------------------------------------------------------ *)

let latency_exp () =
  section "P1. Motivation: user-perceived latency, fast vs slow reads (geo model)";
  Printf.printf
    "Geo-replication: 5 servers in 3 regions, clients co-located with region 0;\n\
     local hop ~5ms, cross-region ~40ms (uniform jitter 10ms).\n\n";
  let latency =
    Simulation.Latency.geo
      ~region_of:(fun n -> n mod 3)
      ~local:5.0 ~cross:40.0 ~jitter:10.0
  in
  row "%-28s %-10s %-10s %-10s %-10s %-11s %-10s\n" "protocol" "read-mean"
    "read-p50" "read-p95" "read-p99" "write-mean" "write-p99";
  row "%s\n" (String.make 92 '-');
  List.iter
    (fun register ->
      let reads_acc = ref [] and writes_acc = ref [] in
      for seed = 1 to 30 do
        let env = Env.make ~seed ~latency ~s:5 ~t:1 ~w:2 ~r:2 () in
        let out =
          Runtime.run ~register ~env
            ~plans:(Hunter.mixed_plans ~w:2 ~r:2 ~ops:4) ()
        in
        reads_acc := Stats.read_latencies out.Runtime.history @ !reads_acc;
        writes_acc := Stats.write_latencies out.Runtime.history @ !writes_acc
      done;
      let reads = Stats.of_latencies !reads_acc in
      let writes = Stats.of_latencies !writes_acc in
      row "%-28s %-10.1f %-10.1f %-10.1f %-10.1f %-11.1f %-10.1f\n"
        (Registers.Registry.name register)
        reads.Stats.mean reads.Stats.p50 reads.Stats.p95 reads.Stats.p99
        writes.Stats.mean writes.Stats.p99)
    [
      Registers.Registry.abd_mwmr;
      Registers.Registry.fastread_w2r1;
      Registers.Registry.naive_w1r1;
    ];
  Printf.printf
    "\nShape check: the W2R1 fast read roughly halves read latency versus the\n\
     W2R2 baseline (one round-trip instead of two) while keeping atomicity;\n\
     the naive fast protocol is as fast but loses consistency (see F2/T1).\n"

(* ------------------------------------------------------------------ *)
(* FW: quantifying inconsistency (the paper's s7 future work)           *)
(* ------------------------------------------------------------------ *)

let future_work () =
  section "FW. Future work (s7): how much inconsistency do fast writes buy?";
  Printf.printf
    "Staleness of the naive fast-write register's reads as write contention\n\
     grows (S=5, t=1, R=2).  Writers take sequential turns in a shuffled\n\
     order each era, the worst case for local-clock timestamps; staleness k\n\
     means the read missed k completed writes.\n\n";
  row "%-10s %-14s %-14s %-16s %s\n" "writers" "stale frac" "max staleness"
    "mean staleness" "histogram (k->count)";
  row "%s\n" (String.make 78 '-');
  let eras = 3 in
  let turn = 60.0 in
  List.iter
    (fun w ->
      let fractions = ref [] in
      let max_st = ref 0 in
      let hist = Hashtbl.create 8 in
      let stale_sum = ref 0 and read_count = ref 0 in
      for seed = 1 to 60 do
        (* Per-era shuffled writer order. *)
        let rng = Simulation.Rng.create ~seed in
        let times = Array.make w [] in
        for era = 0 to eras - 1 do
          let order = Array.init w (fun i -> i) in
          Simulation.Rng.shuffle rng order;
          Array.iteri
            (fun pos writer ->
              let at = (float_of_int ((era * w) + pos)) *. turn in
              times.(writer) <- at :: times.(writer))
            order
        done;
        let writer_plan i =
          let starts = List.rev times.(i) in
          match starts with
          | [] -> assert false
          | first :: rest ->
            let steps =
              Runtime.Write
              :: List.concat
                   (List.mapi
                      (fun idx at ->
                        let prev = List.nth starts idx in
                        [ Runtime.Think (at -. prev -. 30.0); Runtime.Write ])
                      rest)
            in
            { Runtime.proc = Histories.Op.Writer i; start_at = first; steps }
        in
        let total = float_of_int (eras * w) *. turn in
        let reader_plan i =
          Runtime.read_plan ~reader:i ~start_at:(5.0 +. float_of_int i)
            ~think:(turn /. 3.0)
            (int_of_float (total /. (turn /. 2.0)))
        in
        let env =
          Env.make ~seed ~latency:(Simulation.Latency.uniform ~lo:1.0 ~hi:8.0)
            ~s:5 ~t:1 ~w ~r:2 ()
        in
        let out =
          Runtime.run ~register:Registers.Registry.naive_w1r2 ~env
            ~plans:(List.init w writer_plan @ List.init 2 reader_plan)
            ()
        in
        let h = out.Runtime.history in
        fractions := Checker.Staleness.stale_fraction h :: !fractions;
        max_st := max !max_st (Checker.Staleness.max_staleness h);
        List.iter
          (fun (k, n) ->
            stale_sum := !stale_sum + (k * n);
            read_count := !read_count + n;
            Hashtbl.replace hist k (n + Option.value ~default:0 (Hashtbl.find_opt hist k)))
          (Checker.Staleness.histogram h)
      done;
      let mean_frac =
        List.fold_left ( +. ) 0.0 !fractions /. float_of_int (List.length !fractions)
      in
      row "%-10d %-14.3f %-14d %-16.3f %s\n" w mean_frac !max_st
        (float_of_int !stale_sum /. float_of_int (max 1 !read_count))
        (String.concat " "
           (List.map
              (fun (k, n) -> Printf.sprintf "%d->%d" k n)
              (List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) hist [])))))
    [ 1; 2; 3; 4 ];
  Printf.printf
    "\nShape check: with one writer the fast write is ABD'95 and staleness is\n\
     zero; every additional writer adds inversion opportunities and the\n\
     stale fraction grows — the inconsistency cost of the latency the W1R2\n\
     impossibility says you cannot have for free.\n"

(* ------------------------------------------------------------------ *)
(* SF: the semifast ablation                                            *)
(* ------------------------------------------------------------------ *)

let semifast () =
  section "SF. Beyond the threshold: the adaptive (semifast-style) register";
  Printf.printf
    "Same certificate-starvation adversary as F9.  The strict fast read\n\
     (Algorithm 1&2) breaks past R = S/t - 2; the adaptive register stays\n\
     atomic by taking a repair round when no margin-safe certificate exists.\n\n";
  row "%-10s %-6s %-18s %-14s %s\n" "S,t" "R" "W2R1 (strict)" "adaptive" "read latency (adaptive, mean RTTs)";
  row "%s\n" (String.make 86 '-');
  List.iter
    (fun (s, t) ->
      List.iter
        (fun r ->
          let strict =
            Threshold.attack ~register:Registers.Registry.fastread_w2r1 ~s ~t ~r
          in
          let adapt =
            Threshold.attack ~register:Registers.Registry.adaptive ~s ~t ~r
          in
          (* Fast-read fraction in a benign contended run. *)
          let env =
            Env.make ~seed:7 ~latency:(Simulation.Latency.constant 2.0) ~s ~t
              ~w:2 ~r ()
          in
          let out =
            Runtime.run ~register:Registers.Registry.adaptive ~env
              ~plans:(Hunter.mixed_plans ~w:2 ~r ~ops:3) ()
          in
          let reads = Stats.reads out.Runtime.history in
          row "S=%-2d t=%-2d R=%-4d %-18s %-14s %.2f\n" s t r
            (if strict.Threshold.atomic then "atomic" else "VIOLATED")
            (if adapt.Threshold.atomic then "atomic" else "VIOLATED")
            (reads.Stats.mean /. 4.0))
        [ 2; 4; 6 ])
    [ (6, 1); (8, 2) ];
  Printf.printf
    "\nShape check: the adaptive register is atomic at every R (including\n\
     where strict fast reads are impossible), and its reads average close to\n\
     one round-trip when certificates are available.\n"

(* ------------------------------------------------------------------ *)
(* WK: W1Rk for k >= 3                                                  *)
(* ------------------------------------------------------------------ *)

let w1rk () =
  section "WK. W1Rk impossibility for k >= 3 (round collapsing, s2.2/s3)";
  let total = ref 0 and convicted = ref 0 in
  List.iter
    (fun k ->
      List.iter
        (fun s ->
          List.iter
            (fun strat ->
              incr total;
              let finding, _ = Impossibility.K_round.run ~s strat in
              if Impossibility.W1r2_theorem.found_violation finding then
                incr convicted)
            ([ Impossibility.K_round.majority_of_last_round ~k;
               Impossibility.K_round.round_vote ~k ]
            @ List.init 30 (fun i -> Impossibility.K_round.seeded ~k (13 * i))))
        [ 3; 4; 5 ])
    [ 2; 3; 4; 5 ];
  row "k-round strategies tried: %d (k in 2..5, S in 3..5)\n" !total;
  row "convicted:                %d\n" !convicted;
  Printf.printf
    "Shape check: collapsing rounds 2..k into one round carries Theorem 1 to\n\
     every W1Rk design point, exactly as the paper remarks.\n"

(* ------------------------------------------------------------------ *)
(* EX: exhaustive small worlds                                          *)
(* ------------------------------------------------------------------ *)

let exhaustive () =
  section "EX. Exhaustive small-world sweep (orders x per-round skips, t=1)";
  row "%-28s %-14s %s\n" "protocol" "world" "outcome";
  row "%s\n" (String.make 78 '-');
  List.iter
    (fun (register, s, w, r) ->
      let o = Workload.Exhaustive.explore ~register ~s ~w ~r () in
      row "%-28s S=%d W=%d R=%d    %s\n"
        (Registers.Registry.name register)
        s w r
        (Format.asprintf "%a" Workload.Exhaustive.pp_outcome o))
    [
      (Registers.Registry.abd_mwmr, 3, 2, 1);
      (Registers.Registry.fastread_w2r1, 4, 2, 1);
      (Registers.Registry.adaptive, 3, 2, 1);
      (Registers.Registry.naive_w1r2, 3, 2, 1);
      (Registers.Registry.naive_w1r1, 3, 2, 1);
    ];
  Printf.printf
    "\nShape check: within the sequential one-op-per-client family the correct\n\
     protocols are atomic in every schedule; the naive fast writes break in\n\
     exactly the writer-inverted ones, with a minimal counterexample.\n"

(* ------------------------------------------------------------------ *)
(* B*: micro-benchmarks                                                 *)
(* ------------------------------------------------------------------ *)

(* Machine-readable results: micro writes the whole of
   BENCH_results.json, declared in results.ml; no other experiment
   touches it. *)
let bench_results_path = "BENCH_results.json"

let micro () =
  section "B*. Bechamel micro-benchmarks (one Test.make per table/figure path)";
  let open Bechamel in
  (* T1 path: one full protocol run + checker verdict. *)
  let bench_run =
    Test.make ~name:"t1-protocol-run-and-check"
      (Staged.stage (fun () ->
           let env =
             Env.make ~seed:1 ~latency:(Simulation.Latency.constant 2.0) ~s:5
               ~t:1 ~w:2 ~r:2 ()
           in
           let out =
             Runtime.run ~register:Registers.Registry.fastread_w2r1 ~env
               ~plans:(Hunter.mixed_plans ~w:2 ~r:2 ~ops:2)
               ()
           in
           ignore (Checker.Atomicity.is_atomic out.Runtime.history)))
  in
  (* F2 path: the polynomial checker on a mid-size history. *)
  let checker_history =
    let env =
      Env.make ~seed:3 ~latency:(Simulation.Latency.uniform ~lo:1.0 ~hi:8.0)
        ~s:5 ~t:1 ~w:2 ~r:2 ()
    in
    let out =
      Runtime.run ~register:Registers.Registry.abd_mwmr ~env
        ~plans:(Hunter.mixed_plans ~w:2 ~r:2 ~ops:6)
        ()
    in
    out.Runtime.history
  in
  let bench_checker =
    Test.make ~name:"f2-atomicity-checker"
      (Staged.stage (fun () -> ignore (Checker.Atomicity.is_atomic checker_history)))
  in
  (* The same history through the streaming core, in completion order. *)
  let bench_streaming =
    let completed =
      List.stable_sort
        (fun (a : Histories.Op.t) (b : Histories.Op.t) ->
          let resp (o : Histories.Op.t) =
            Option.value o.Histories.Op.resp ~default:infinity
          in
          Float.compare (resp a) (resp b))
        (Histories.History.ops checker_history)
    in
    Test.make ~name:"f2-streaming-checker"
      (Staged.stage (fun () ->
           let t = Checker.Online.create () in
           List.iter (Checker.Online.feed t) completed;
           ignore (Checker.Online.finalize t)))
  in
  let bench_oracle =
    let small =
      Histories.History.restrict checker_history ~f:(fun o -> o.Histories.Op.id < 14)
    in
    Test.make ~name:"f2-wing-gong-oracle"
      (Staged.stage (fun () -> ignore (Checker.Linearizability.check small)))
  in
  (* F3 path: a full theorem-driver walk. *)
  let bench_theorem =
    Test.make ~name:"f3-w1r2-theorem-walk"
      (Staged.stage (fun () ->
           ignore
             (Impossibility.W1r2_theorem.run ~s:5
                Impossibility.Strategy.majority_last)))
  in
  (* F4-7 path: one zigzag step build + verify. *)
  let chain = Impossibility.Chain_beta.build ~s:8 ~stem_swapped:3 ~critical:3 in
  let bench_zigzag =
    Test.make ~name:"f47-zigzag-step-verify"
      (Staged.stage (fun () ->
           let step = Impossibility.Zigzag.build_step ~chain ~k:5 in
           ignore (Impossibility.Zigzag.verify_step ~chain step)))
  in
  (* F8 path: one sieve run. *)
  let bench_sieve =
    Test.make ~name:"f8-sieve-run"
      (Staged.stage (fun () ->
           ignore
             (Impossibility.Sieve.run ~s:10
                ~effect:(Impossibility.Sieve.seeded_effect ~seed:5 ~flip_probability_pct:30)
                (Impossibility.Sieve.crucial_of_last_digits ()))))
  in
  (* F9 path: the admissible predicate. *)
  let replies =
    List.init 5 (fun srv ->
        ( srv,
          Registers.Wire.Read_ack
            {
              current = { Registers.Wire.tag = { Registers.Tstamp.ts = 3; wid = 1 }; payload = 7 };
              vector =
                List.init 4 (fun ts ->
                    ( { Registers.Wire.tag = { Registers.Tstamp.ts; wid = ts mod 2 }; payload = ts },
                      List.init 3 (fun c -> 10 + ((srv + c) mod 4)) ));
            } ))
  in
  let v = { Registers.Wire.tag = { Registers.Tstamp.ts = 2; wid = 0 }; payload = 2 } in
  let bench_admissible =
    Test.make ~name:"f9-admissible-predicate"
      (Staged.stage (fun () ->
           ignore
             (Registers.Client_core.admissible ~s:6 ~t:1 ~value:v ~replies
                ~degree:2)))
  in
  (* P1 path: raw simulator event throughput. *)
  let bench_engine =
    Test.make ~name:"p1-engine-10k-events"
      (Staged.stage (fun () ->
           let e = Simulation.Engine.create ~seed:1 () in
           for i = 1 to 10_000 do
             Simulation.Engine.schedule_at e
               ~time:(float_of_int (i land 1023))
               (fun () -> ())
           done;
           Simulation.Engine.run e))
  in
  let tests =
    [
      bench_run;
      bench_checker;
      bench_streaming;
      bench_oracle;
      bench_theorem;
      bench_zigzag;
      bench_sieve;
      bench_admissible;
      bench_engine;
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  row "%-32s %14s\n" "benchmark" "time/run";
  row "%s\n" (String.make 48 '-');
  let estimates = ref [] in
  List.iter
    (fun test ->
      List.iter
        (fun (name, result) ->
          let ols_result = Analyze.one ols instance result in
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> e
            | _ -> nan
          in
          let pretty =
            if estimate > 1e9 then Printf.sprintf "%.2f s" (estimate /. 1e9)
            else if estimate > 1e6 then Printf.sprintf "%.2f ms" (estimate /. 1e6)
            else if estimate > 1e3 then Printf.sprintf "%.2f us" (estimate /. 1e3)
            else Printf.sprintf "%.0f ns" estimate
          in
          estimates := (name, estimate) :: !estimates;
          row "%-32s %14s\n" name pretty)
        (Hashtbl.fold
           (fun name result acc -> (name, result) :: acc)
           (Benchmark.all cfg [ instance ] test)
           []))
    tests;
  (* Wall-clock of the full T1 measurement sweep, sequential vs the
     configured pool.  One untimed warmup sweep first (so neither
     contender pays the one-off heap growth) and [Gc.compact] before
     each timed run.  The contenders run in matched pairs over six
     rounds, alternating which goes first within the round, and the
     reported speedup is the *median of the per-round ratios*: pairing
     cancels slow environmental drift (anything perturbing one round
     hits both contenders), alternation cancels within-round ordering
     bias, and the median sheds a wholly-perturbed round.  Back-to-back
     min-of-N blocks measured GC and scheduler history instead — and on
     a single-core host, where the pool clamps to one domain and both
     contenders execute the same inline path, they turned the honest
     ratio of 1.0 into a coin flip. *)
  let timed p runs broken =
    Gc.compact ();
    let t0 = Transport.Clock.now () in
    let r, b = t1_sweep p in
    let dt = Transport.Clock.now () -. t0 in
    runs := r;
    broken := b;
    dt
  in
  ignore (t1_sweep !pool);
  let seq_pool = Parallel.Pool.create ~domains:1 () in
  let rounds = 6 in
  let seq_ts = Array.make rounds 0.0 and par_ts = Array.make rounds 0.0 in
  let seq_runs = ref 0 and seq_broken = ref 0 in
  let par_runs = ref 0 and par_broken = ref 0 in
  for i = 0 to rounds - 1 do
    if i land 1 = 0 then begin
      seq_ts.(i) <- timed seq_pool seq_runs seq_broken;
      par_ts.(i) <- timed !pool par_runs par_broken
    end
    else begin
      par_ts.(i) <- timed !pool par_runs par_broken;
      seq_ts.(i) <- timed seq_pool seq_runs seq_broken
    end
  done;
  let median a =
    let s = Array.copy a in
    Array.sort compare s;
    let n = Array.length s in
    if n land 1 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))
  in
  let seq_s = median seq_ts and par_s = median par_ts in
  let speedup =
    median (Array.init rounds (fun i -> seq_ts.(i) /. par_ts.(i)))
  in
  let seq_runs, seq_broken = (!seq_runs, !seq_broken) in
  let par_runs, par_broken = (!par_runs, !par_broken) in
  let domains = Parallel.Pool.domains !pool in
  row "\n%-32s %14s\n" "t1 sweep wall-clock" "seconds";
  row "%s\n" (String.make 48 '-');
  row "%-32s %14.3f\n" "sequential (1 domain)" seq_s;
  row "%-32s %14.3f\n" (Printf.sprintf "parallel (%d domains)" domains) par_s;
  row "%-32s %13.2fx\n" "speedup" speedup;
  if (seq_runs, seq_broken) <> (par_runs, par_broken) then
    row "WARNING: parallel verdicts diverge from sequential (%d,%d vs %d,%d)\n"
      seq_runs seq_broken par_runs par_broken;
  Results.write bench_results_path
    {
      recommended_domains = Domain.recommended_domain_count ();
      wall_clock = { runs = seq_runs; broken = seq_broken; seq_s; par_s; domains; speedup };
      micro_ns_per_run = List.rev !estimates;
    };
  Printf.printf "\nwrote %s\n" bench_results_path

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("t1", table1);
    ("f2", fig2);
    ("f3", fig3);
    ("f4567", fig4567);
    ("f8", fig8);
    ("f9", fig9);
    ("alg12", alg12);
    ("p1", latency_exp);
    ("fw", future_work);
    ("sf", semifast);
    ("wk", w1rk);
    ("ex", exhaustive);
    ("micro", micro);
  ]

let run domains requested =
  let domains =
    match domains with Some n -> n | None -> Parallel.Pool.default_domains ()
  in
  pool := Parallel.Pool.create ~domains ();
  (* stderr, so the experiment tables stay byte-identical across domain
     counts. *)
  Printf.eprintf "[domains %d]\n%!" domains;
  let requested =
    match requested with [] -> List.map snd experiments | fs -> fs
  in
  Printf.printf
    "mwregister benchmark harness — reproducing Huang, Huang & Wei (PODC 2020)\n";
  List.iter (fun f -> f ()) requested

let () =
  let open Cmdliner in
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some k when k >= 1 -> Ok k
      | _ -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let domains =
    Arg.(value & opt (some positive) None
         & info [ "domains" ] ~docv:"N"
             ~doc:"Domain-pool size for the parallel sweeps (default: \
                   $(b,MWREG_DOMAINS), else the recommended domain count).")
  in
  let requested =
    Arg.(value & pos_all (enum experiments) []
         & info [] ~docv:"EXPERIMENT"
             ~doc:(Printf.sprintf "Experiments to run (default: all): %s."
                     (String.concat ", " (List.map fst experiments))))
  in
  let cmd =
    Cmd.v
      (Cmd.info "main" ~doc:"Regenerate the paper's tables and figures.")
      Term.(const run $ domains $ requested)
  in
  exit (match Cmd.eval_value cmd with Ok _ -> 0 | Error _ -> 1)
