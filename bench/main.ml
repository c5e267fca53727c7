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
(* BENCH_results.json and the live experiments' budgets                 *)
(* ------------------------------------------------------------------ *)

(* Machine-readable results: the experiments add their rows to the
   tables declared in results.ml, and the document is written once,
   after all requested experiments ran, so `-- micro live` produces one
   combined document. *)
let bench_results_path = "BENCH_results.json"

(* Writes and reads per client in the live experiments; --live-ops N
   scales it down so CI smoke runs finish in seconds. *)
let live_ops = ref 20

(* Base seed for the chaos soak; each row derives its own seed from it
   so the whole sweep replays from one number (--chaos-seed N). *)
let chaos_seed = ref 0

(* Completed operations the soak experiment pushes through the
   streaming checker; --soak-ops N scales it down for CI smoke. *)
let soak_ops = ref 1_000_000

(* ------------------------------------------------------------------ *)
(* LV: the live TCP benchmark                                           *)
(* ------------------------------------------------------------------ *)

(* One single-register run (split roles, [ops] writes per writer and
   2 x [ops] reads per reader) on a fresh one-group loopback cluster. *)
let run_register ?faults ?rt_timeout ?max_rt_retries ?live_check ~register ~s
    ~tol ~writers ~readers ops =
  let cluster = Kv.Kv_cluster.start ?faults ~groups:1 ~s ~tol () in
  Fun.protect
    ~finally:(fun () -> Kv.Kv_cluster.shutdown cluster)
    (fun () ->
      let result =
        Kv.Kv_session.run ?faults ?rt_timeout ?max_rt_retries ?live_check
          ~register ~cluster
          (Kv.Kv_session.register_spec ~writers ~readers ops)
      in
      { Results.register; s; tol; writers; readers; result })

let live_exp () =
  (* When this runs after the micro phase, bechamel's garbage is still
     on the major heap; collect it up front so the first live rows don't
     pay another phase's GC debt. *)
  Gc.compact ();
  section "LV. Live TCP: the same algorithm bodies over real loopback sockets";
  Printf.printf
    "Each row: a fresh S=5 t=1 loopback cluster (real server daemons, real\n\
     TCP round trips), W writers x 20 writes and R readers x 40 reads, every\n\
     operation streamed through the live atomicity checker.  Rounds/op must\n\
     match Table 1 -- the paper's cost measure, now measured on sockets.\n\n";
  row "%-28s %-8s %-9s %-9s %-24s %-24s %s\n" "protocol" "ops/s" "write-rt"
    "read-rt" "write ms (p50/p95/p99)" "read ms (p50/p95/p99)" "atomic";
  row "%s\n" (String.make 112 '-');
  let s = 5 and t = 1 in
  let ops = !live_ops in
  List.iter
    (fun (register, w, r) ->
      let m =
        run_register ~live_check:true ~register ~s ~tol:t ~writers:w
          ~readers:r ops
      in
      let res = m.Results.result in
      let writes = res.Kv.Kv_session.write_lat
      and reads = res.Kv.Kv_session.read_lat in
      let atomic = Results.streamed_atomic res in
      let name = Registers.Registry.name register in
      row "%-28s %-8.0f %-9.2f %-9.2f %-24s %-24s %b\n" name
        res.Kv.Kv_session.throughput
        res.Kv.Kv_session.write_rounds res.Kv.Kv_session.read_rounds
        (Printf.sprintf "%.2f/%.2f/%.2f" (1e3 *. writes.Stats.p50)
           (1e3 *. writes.Stats.p95) (1e3 *. writes.Stats.p99))
        (Printf.sprintf "%.2f/%.2f/%.2f" (1e3 *. reads.Stats.p50)
           (1e3 *. reads.Stats.p95) (1e3 *. reads.Stats.p99))
        atomic;
      Results.add Results.live m)
    [
      (Registers.Registry.abd_swmr, 1, 2);
      (Registers.Registry.abd_mwmr, 2, 2);
      (Registers.Registry.fastread_w2r1, 2, 2);
      (Registers.Registry.adaptive, 2, 2);
    ];
  Printf.printf
    "\nShape check: the simulator's round-trip economics survive contact with\n\
     real sockets -- W2R1 reads cost one round trip (half of W2R2's two) and\n\
     every history stays atomic.\n";
  (* ---------------------------------------------------------------- *)
  (* The client-scaling sweep over the shared mux plane against the
     reactor server.  Per (protocol, client count): a fresh S=5 t=1
     cluster, C/2 writers and C/2 readers hammering it with no think
     time (C counts total clients), all C clients sharing S
     connections.  Atomicity is already certified by the table above
     and the test suite, so these rows measure raw throughput only.    *)
  section "LV-S. Client scaling: shared mux plane";
  Printf.printf
    "S=5 t=1, C total clients (half writers, half readers), no think time.\n\
     Steady rows run the full per-client op budget (scaled down past\n\
     C=64 to keep total work bounded); short rows run 2 writes per\n\
     writer so connection setup stays inside the measured window.\n\n";
  row "%-28s %-6s %-7s %-6s %-10s %-10s %s\n" "protocol" "C" "regime" "ops"
    "ops/s" "write-p50" "read-p50";
  row "%s\n" (String.make 82 '-');
  (* Per-client op budget for the steady regime: high client counts
     multiply the total op count, so the budget shrinks as C grows —
     the row still measures sustained concurrency (every client holds
     its connections for many round trips), just without turning the
     C=1024 row into minutes of wall clock. *)
  let steady_ops c =
    if c <= 64 then ops
    else if c <= 256 then max 2 (ops / 2)
    else max 2 (ops / 4)
  in
  (* Steady rows at every count the thread-per-connection server could
     and could not reach (its accept loop spawned a thread per conn and
     fell over near FD_SETSIZE; the reactor's poll/epoll waits do not),
     plus short-lived-client rows at the contended counts: short
     sessions keep connection setup inside the measured window, where
     long sessions amortise it away. *)
  (* Heaviest rows go last: the C=1024 teardown churn — thousands of
     TIME_WAIT conns, a thousand client threads unwinding — would
     otherwise bleed into whichever row starts next. *)
  let points =
    List.map (fun c -> (c, steady_ops c, "steady")) [ 2; 4; 8; 16; 32; 64 ]
    @ (if ops > 2 then
         [ (64, 2, "short"); (256, 2, "short"); (1024, 2, "short") ]
       else [])
    @ [ (256, steady_ops 256, "steady"); (1024, steady_ops 1024, "steady") ]
  in
  List.iter
    (fun register ->
      List.iter
        (fun (c, row_ops, regime) ->
          (* Each row starts from a settled machine: collect the
             previous row's garbage and give its cluster teardown
             (thread unwinding, socket close handshakes) a moment to
             drain — the rows compare client counts, so none may
             inherit its predecessor's debris. *)
          Gc.compact ();
          Unix.sleepf 0.25;
          (* Past ~128 clients on a small box, a round trip can sit
             behind hundreds of queued peers; a generous per-round-trip
             timeout keeps scheduling delay from registering as loss
             and triggering retries. *)
          let rt_timeout = if c >= 128 then Some 5.0 else None in
          let m =
            run_register ?rt_timeout ~register ~s ~tol:t ~writers:(c / 2)
              ~readers:(c / 2) row_ops
          in
          let res = m.Results.result in
          let name = Registers.Registry.name register in
          row "%-28s %-6d %-7s %-6d %-10.0f %-10.2f %.2f\n" name c regime
            res.Kv.Kv_session.ops res.Kv.Kv_session.throughput
            (1e3 *. res.Kv.Kv_session.write_lat.Stats.p50)
            (1e3 *. res.Kv.Kv_session.read_lat.Stats.p50);
          Results.add Results.live_scaling (regime, m))
        points)
    Registers.Registry.multi_writer;
  Printf.printf
    "\nShape check: the thread-per-connection server peaked near C=32 and\n\
     could not cross FD_SETSIZE at all; the reactor sustains C=1024 with\n\
     every client riding the same S shared connections.\n"

(* ------------------------------------------------------------------ *)
(* CH: the chaos soak                                                    *)
(* ------------------------------------------------------------------ *)

let chaos_exp () =
  Gc.compact ();
  section "CH. Chaos soak: seeded fault schedules over the live transport";
  Printf.printf
    "Each row: a fresh S=5 t=1 cluster whose every link drops, delays and\n\
     duplicates frames under a deterministic seeded plan, with one server\n\
     killed mid-run and restarted from its recovered snapshot.  Inside the\n\
     possible regimes the verdict must stay atomic: lossy links may only\n\
     show up as round-trip retries, never as a consistency violation.\n\n";
  row "%-28s %-6s %-5s %-8s %-9s %-9s %-8s %s\n" "protocol" "seed" "ops"
    "retries" "write-rt" "read-rt" "atomic" "expected";
  row "%s\n" (String.make 86 '-');
  let ops = max 2 (!live_ops / 2) in
  let base = !chaos_seed in
  Results.add Results.chaos_base_seed base;
  List.iteri
    (fun i register ->
      (* Same hygiene as the scaling sweep: no row inherits its
         predecessor's teardown debris. *)
      Gc.compact ();
      Unix.sleepf 0.15;
      let seed = base + i in
      let sk = Kv.Chaos.soak ~seed ~ops ~live_check:true ~register () in
      let res = sk.Kv.Chaos.result in
      let name = Registers.Registry.name register in
      row "%-28s %-6d %-5d %-8d %-9.2f %-9.2f %-8b %b\n" name seed
        res.Kv.Kv_session.ops res.Kv.Kv_session.retries
        res.Kv.Kv_session.write_rounds res.Kv.Kv_session.read_rounds
        (Results.streamed_atomic res)
        sk.Kv.Chaos.expected_atomic;
      Results.add Results.chaos_soak sk)
    Registers.Registry.multi_writer;
  (* The deterministic restart-fidelity script: both halves of the
     crash-stop argument. *)
  Printf.printf
    "\nRestart fidelity (S=3 t=1, write confined to {0,1}, read to {0,2},\n\
     server 0 killed and restarted between them):\n\n";
  row "%-10s %-8s %s\n" "mode" "atomic" "read";
  row "%s\n" (String.make 38 '-');
  List.iter
    (fun (mode_name, mode) ->
      let o = Kv.Chaos.restart_scenario ~mode () in
      row "%-10s %-8b %s\n" mode_name o.Kv.Chaos.atomic
        (match o.Kv.Chaos.read_value with
        | Some v -> string_of_int v
        | None -> "-");
      Results.add Results.chaos_restart o)
    [ ("recover", `Recover); ("fresh", `Fresh) ];
  Printf.printf
    "\nShape check: recover-restarts behave as slow servers (atomic, as the\n\
     paper's crash-stop model promises); a fresh restart forgets an\n\
     acknowledged write and the checker catches it with a witness.\n"

(* ------------------------------------------------------------------ *)
(* KV: the sharded keyspace under a YCSB-shaped load                    *)
(* ------------------------------------------------------------------ *)

let kv_exp () =
  section "KV. Sharded keyspace: YCSB-shaped load over consistent-hash groups";
  Printf.printf
    "Each row: G independent S=3 t=1 shard groups behind the placement\n\
     ring, C closed-loop clients mixing reads and writes (YCSB mix A\n\
     unless noted) over K keys, zipfian (theta=%.2f) or uniform.  Every\n\
     operation runs the multi-writer ABD body per key and streams through\n\
     the live atomicity checker, every key checked.\n\n"
    Ycsb.default_theta;
  let s = 3 and tol = 1 in
  let ops = !live_ops in
  row "%-9s %-3s %-5s %-7s %-8s %-4s %-6s %-9s %-7s %-7s %-7s %-7s %s\n"
    "regime" "G" "C" "K" "dist" "mix" "ops" "ops/s" "p50" "p95" "p99" "atomic"
    "dropped";
  row "%s\n" (String.make 94 '-');
  let run_row ?(regime = "closed") ?(think = 0.0) idx groups clients keys dist
      mix =
    (* Same per-row hygiene as LV-S: rows compare shard counts, so no
       row may inherit its predecessor's teardown debris. *)
    Gc.compact ();
    Unix.sleepf 0.25;
    let cluster = Kv.Kv_cluster.start ~groups ~s ~tol () in
    Fun.protect
      ~finally:(fun () -> Kv.Kv_cluster.shutdown cluster)
      (fun () ->
        let rt_timeout = if clients >= 128 then Some 5.0 else None in
        let spec =
          {
            Kv.Kv_session.roles = Kv.Kv_session.Mixed clients;
            ops_per_client = ops;
            keys;
            dist;
            mix;
            seed = 1000 + (17 * idx);
            think;
          }
        in
        let res =
          Kv.Kv_session.run ?rt_timeout ~live_check:true ~cluster spec
        in
        let atomic = Results.streamed_atomic res in
        let all = res.Kv.Kv_session.all_lat in
        row "%-9s %-3d %-5d %-7d %-8s %-4s %-6d %-9.0f %-7.2f %-7.2f %-7.2f %-7b %d\n"
          regime groups clients keys (Ycsb.dist_name dist)
          (Ycsb.mix_name mix)
          res.Kv.Kv_session.ops
          res.Kv.Kv_session.throughput (1e3 *. all.Stats.p50)
          (1e3 *. all.Stats.p95) (1e3 *. all.Stats.p99) atomic
          res.Kv.Kv_session.dropped;
        Results.add Results.kv_scaling { regime; groups; spec; kv = res })
  in
  let idx = ref 0 in
  let zipf = Ycsb.Zipfian Ycsb.default_theta in
  (* The acceptance grid: G x C x K x dist, all at mix A.  The light
     client count runs first so a regression at C=256 is attributable
     (its rows land after the C=64 baseline). *)
  List.iter
    (fun (groups, clients, keys, dist) ->
      incr idx;
      run_row !idx groups clients keys dist Ycsb.A)
    Results.kv_grid;
  (* Mix B (95% read) and C (read-only) at one mid-size point: the read
     fraction moves the latency profile, not the verdicts. *)
  List.iter
    (fun mix ->
      incr idx;
      run_row !idx 2 64 1_000 zipf mix)
    [ Ycsb.B; Ycsb.C ];
  (* The scale-out regime: hold the per-shard offered load constant and
     grow the client population with the group count (the standard YCSB
     cluster-scaling shape).  The closed-loop grid above saturates the
     host CPU, so its rows measure per-op cost, not capacity; with a
     think time the offered load sits below one group's capacity, and
     the aggregate throughput a deployment absorbs grows with its shard
     count — this is where the 4-group rows must beat the 1-group
     baseline. *)
  let scale_think = 0.04 and per_group_clients = 64 in
  List.iter
    (fun groups ->
      incr idx;
      run_row ~regime:"scaleout" ~think:scale_think !idx groups
        (per_group_clients * groups) 1_000 zipf Ycsb.A)
    [ 1; 2; 4 ];
  Printf.printf
    "\nShape check: group_ops spread tracks the ring (uniform keys land\n\
     ~evenly; zipfian heads pin their shard), every key is\n\
     atomic, and in the scale-out regime (constant per-shard\n\
     offered load) the 4-group aggregate out-runs the 1-group baseline --\n\
     per-key quorums compose, so capacity scales with shard count.\n"

(* ------------------------------------------------------------------ *)
(* SK: the streaming checker at soak scale                              *)
(* ------------------------------------------------------------------ *)

let soak_exp () =
  Gc.compact ();
  section "SK. Soak: streaming atomicity checker at million-op scale";
  Printf.printf
    "Each row runs the same workload twice -- checking off, then the\n\
     streaming checker attached (--check live) -- so the throughput\n\
     columns measure the checker's contention cost directly.  The\n\
     checker's memory is its peak window (resident operations), not the\n\
     history length: the batch checker would hold every one of the ops\n\
     below.  KV row: mix A zipfian over the sharded keyspace, every key\n\
     checked.  Session row: the chaos storm (drop/delay/duplicate plus\n\
     a kill and recover-restart) with the checker riding along.\n\n";
  row "%-9s %-22s %-9s %-10s %-10s %-7s %-8s %-10s %-7s %s\n" "plane"
    "label" "ops" "ops/s" "nocheck" "keys" "window" "check/s" "atomic"
    "violations";
  row "%s\n" (String.make 108 '-');
  let emit (m : Results.soak_run) =
    let r = m.Results.report in
    let tput =
      if m.Results.duration > 0.0 then float_of_int m.Results.ops /. m.Results.duration
      else 0.0
    in
    row "%-9s %-22s %-9d %-10.0f %-10.0f %-7d %-8d %-10.0f %-7b %d\n"
      m.Results.plane m.Results.label m.Results.ops tput
      m.Results.nocheck_throughput r.Transport.Check_sink.keys
      r.Transport.Check_sink.peak_window
      r.Transport.Check_sink.checker_ops_per_sec (Transport.Check_sink.atomic r)
      (List.length r.Transport.Check_sink.violations);
    Results.add Results.soak m
  in
  (* KV: the million-op row; the streaming checker covers every key in
     O(window). *)
  let clients = 8 in
  let kv_spec =
    {
      Kv.Kv_session.roles = Kv.Kv_session.Mixed clients;
      ops_per_client = max 1 (!soak_ops / clients);
      keys = 1_000;
      dist = Ycsb.Zipfian Ycsb.default_theta;
      mix = Ycsb.A;
      seed = 4242;
      think = 0.0;
    }
  in
  let run_kv ~live_check =
    Gc.compact ();
    Unix.sleepf 0.25;
    let cluster = Kv.Kv_cluster.start ~groups:2 ~s:3 ~tol:1 () in
    Fun.protect
      ~finally:(fun () -> Kv.Kv_cluster.shutdown cluster)
      (fun () -> Kv.Kv_session.run ~live_check ~cluster kv_spec)
  in
  let base = run_kv ~live_check:false in
  let live = run_kv ~live_check:true in
  (match live.Kv.Kv_session.online with
  | Some r ->
    emit
      {
        plane = "kv";
        label = "mixA-zipfian-allkeys";
        ops = live.Kv.Kv_session.ops;
        duration = live.Kv.Kv_session.duration;
        nocheck_throughput = base.Kv.Kv_session.throughput;
        expected_atomic = true;
        report = r;
      }
  | None -> ());
  (* Session: the chaos storm.  Fault delays bound this plane to tens
     of ops/s, so the row rides at soak_ops/10000 writes per writer
     (6x that in total ops, ~100s per run at the full budget) -- the
     checker must hold its window bound through drops, retries, and
     the kill/recover-restart.  The million-op volume claim belongs to
     the KV row above. *)
  let chaos_ops = max 8 (!soak_ops / 10_000) in
  let run_chaos ~live_check =
    Gc.compact ();
    Unix.sleepf 0.25;
    Kv.Chaos.soak ~seed:!chaos_seed ~ops:chaos_ops ~live_check
      ~register:Registers.Registry.abd_mwmr ()
  in
  let base = run_chaos ~live_check:false in
  let live = run_chaos ~live_check:true in
  (match live.Kv.Chaos.result.Kv.Kv_session.online with
  | Some r ->
    emit
      {
        plane = "session";
        label = "chaos-storm";
        ops = live.Kv.Chaos.result.Kv.Kv_session.ops;
        duration = live.Kv.Chaos.result.Kv.Kv_session.duration;
        nocheck_throughput = base.Kv.Chaos.result.Kv.Kv_session.throughput;
        expected_atomic = live.Kv.Chaos.expected_atomic;
        report = r;
      }
  | None -> ());
  Printf.printf
    "\nShape check: the window column stays orders of magnitude below the\n\
     ops column (O(active keys + in-flight), not O(history)) and the\n\
     checked count covers the whole stream.  The feed is contention-free\n\
     (clients never block on the checker), so the live/nocheck gap is the\n\
     checker's CPU share: near zero with a spare core, bounded by the\n\
     checker's busy fraction plus scheduling churn on a single core.\n"

(* ------------------------------------------------------------------ *)
(* GEO: WAN/geo profiles over the live transport                        *)
(* ------------------------------------------------------------------ *)

(* The acceptance grid runs three named profiles; asym-updown stays a
   CLI/test citizen (its point is the direction-dependent matrix, not
   another throughput column). *)
let geo_bench_profiles =
  [ Transport.Geo.lan; Transport.Geo.wan_3region; Transport.Geo.mixed_1ms_80ms ]

let geo_exp () =
  Gc.compact ();
  section "GEO. WAN/geo profiles: one geography, every protocol";
  Printf.printf
    "Each row: a fresh S=5 t=1 loopback cluster whose every client<->server\n\
     link is shaped by the named profile -- per-region-pair base delay plus\n\
     jitter, compiled from the same matrices the simulator's latency model\n\
     draws from (node region = id mod regions).  Delayed frames park on\n\
     per-link deadline queues, never in a sleeping sender, so one far\n\
     region cannot stall another link's traffic.  Rounds/op is the paper's\n\
     cost measure: under WAN delays every saved round is ~one RTT off the\n\
     latency column.\n\n";
  row "%-28s %-15s %-5s %-8s %-9s %-8s %-10s %-10s %s\n" "protocol"
    "profile" "ops" "ops/s" "write-rt" "read-rt" "write-p50" "read-p50"
    "atomic";
  row "%s\n" (String.make 108 '-');
  let s = 5 and t = 1 in
  let ops = max 2 (!live_ops / 4) in
  List.iter
    (fun profile ->
      List.iter
        (fun register ->
          (* Same hygiene as LV-S: no row inherits its predecessor's
             teardown debris. *)
          Gc.compact ();
          Unix.sleepf 0.15;
          let w = Registers.Registry.clamp_writers register 2 in
          let r = 2 in
          let clients = List.init (w + r) (fun i -> s + i) in
          let faults = Transport.Geo.plan profile ~s ~clients in
          let b = Transport.Geo.budget profile in
          let m =
            run_register ~faults ~rt_timeout:b.rt_timeout
              ~max_rt_retries:b.max_rt_retries ~live_check:true ~register ~s
              ~tol:t ~writers:w ~readers:r ops
          in
          let res = m.Results.result in
          let name = Registers.Registry.name register in
          let pname = Transport.Geo.name profile in
          row "%-28s %-15s %-5d %-8.0f %-9.2f %-8.2f %-10.2f %-10.2f %b\n"
            name pname res.Kv.Kv_session.ops res.Kv.Kv_session.throughput
            res.Kv.Kv_session.write_rounds res.Kv.Kv_session.read_rounds
            (1e3 *. res.Kv.Kv_session.write_lat.Stats.p50)
            (1e3 *. res.Kv.Kv_session.read_lat.Stats.p50)
            (Results.streamed_atomic res);
          Results.add Results.geo_rows (profile, m))
        Registers.Registry.all)
    geo_bench_profiles;
  (* The region-outage scenario: wan-3region with its smallest region
     (one server, two clients) partitioned away for a window mid-run,
     on top of the geo delays.  Quorum is 4 of 5; the cut region's
     clients see zero reachable quorum during the window and must ride
     it out on round-trip retries, while the majority side keeps
     exactly a quorum — atomicity must hold throughout, and the
     streaming checker delivers the verdict live. *)
  let profile = Transport.Geo.wan_3region in
  let w = 2 and r = 2 in
  let clients = List.init (w + r) (fun i -> s + i) in
  let o = Transport.Geo.outage profile ~s ~clients in
  Printf.printf
    "\nRegion outage: %s region %s (nodes %s) partitioned away %.2fs-%.2fs\n\
     into the run, on top of the profile's delays; streaming checker on.\n\n"
    (Transport.Geo.name profile)
    (Transport.Geo.region_name profile o.region)
    (String.concat "," (List.map string_of_int o.cut))
    o.from_ o.until;
  row "%-28s %-5s %-9s %-9s %-7s %s\n" "protocol" "ops" "retries" "starved"
    "check" "atomic";
  row "%s\n" (String.make 66 '-');
  Gc.compact ();
  Unix.sleepf 0.15;
  let faults = Transport.Geo.plan profile ~s ~clients ~extra:[ o.rule ] in
  let register = Registers.Registry.abd_mwmr in
  let m =
    let b = Transport.Geo.outage_budget profile in
    run_register ~faults ~rt_timeout:b.rt_timeout
      ~max_rt_retries:b.max_rt_retries ~live_check:true ~register ~s ~tol:t
      ~writers:w ~readers:r ops
  in
  let res = m.Results.result in
  let name = Registers.Registry.name register in
  row "%-28s %-5d %-9d %-9d %-7s %b\n" name res.Kv.Kv_session.ops
    res.Kv.Kv_session.retries res.Kv.Kv_session.starved "live"
    (Results.streamed_atomic res);
  Results.add Results.geo_outage
    ({ profile; region = o.region; window_s = o.until -. o.from_ }, m);
  Printf.printf
    "\nShape check: rounds/op are profile-invariant (the paper's cost\n\
     measure counts rounds, not milliseconds) while p50 latency scales\n\
     with the profile's RTT -- so every round a fast protocol saves is\n\
     worth ~80ms under wan-3region vs ~1ms under lan.  The region outage\n\
     costs the cut region's clients retries, never atomicity.\n"

(* ------------------------------------------------------------------ *)

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
  Results.add Results.micro_ns_per_run (List.rev !estimates);
  Results.add Results.wall_clock
    { runs = seq_runs; broken = seq_broken; seq_s; par_s; domains; speedup }

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
    ("live", live_exp);
    ("kv", kv_exp);
    ("chaos", chaos_exp);
    ("geo", geo_exp);
    ("sk", soak_exp);
    ("micro", micro);
  ]

let run domains lo so seed requested =
  live_ops := lo;
  soak_ops := so;
  chaos_seed := seed;
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
  List.iter (fun f -> f ()) requested;
  match Results.write bench_results_path with
  | [] -> ()
  | sections ->
    Printf.printf "\nwrote %s (sections: %s)\n" bench_results_path
      (String.concat ", " sections)
  | exception Failure msg ->
    prerr_endline msg;
    exit 1

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
  let live_ops =
    Arg.(value & opt positive !live_ops
         & info [ "live-ops" ] ~docv:"N"
             ~doc:"Writes per writer in the live, chaos, geo and kv rows.")
  in
  let soak_ops =
    Arg.(value & opt positive !soak_ops
         & info [ "soak-ops" ] ~docv:"N"
             ~doc:"Total operation budget of the streaming-checker soak.")
  in
  let chaos_seed =
    Arg.(value & opt int !chaos_seed
         & info [ "chaos-seed" ] ~docv:"SEED"
             ~doc:"Base seed of the chaos soak's fault plans.")
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
      Term.(const run $ domains $ live_ops $ soak_ops $ chaos_seed $ requested)
  in
  exit (match Cmd.eval_value cmd with Ok _ -> 0 | Error _ -> 1)
