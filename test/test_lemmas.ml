(* Appendix-A lemmas as observable properties of Algorithm 1 & 2 runs.

   The MWA0–MWA4 properties are checked elsewhere on the history level;
   here we probe the reader's internals (a [Registers.Cluster_base]
   whose readers are [Registers.Fastread_w2r1.new_reader ~probe]) and
   assert the supporting lemmas the correctness proof rests on, over
   randomized safe-regime runs:

   - Lemma 2: a read returns a value whose timestamp is maxTS or
     maxTS − 1 (maxTS = largest timestamp among its replies).
   - Lemma 3: the reader's valQueue maximum is always admissible, so the
     descending scan never falls off the end (no fallback).
   - Lemma 4 / MWA1: returned timestamps are non-negative.
   - degree bound: the admissibility degree used lies in [1, R+1].
   - safe-regime sanity: in the proven regime the degree's certificate
     has margin (S − a·t > 0). *)

open Protocol
open Registers

let check = Alcotest.check
let bool = Alcotest.bool

let run_probed ~seed ~s ~t ~w ~r ~adversarial =
  let env =
    Env.make ~seed
      ~latency:(Simulation.Latency.uniform ~lo:1.0 ~hi:8.0)
      ~s ~t ~w ~r ()
  in
  let probes = ref [] in
  let probe p = probes := p :: !probes in
  let cluster =
    Cluster_base.create env
      { Fastread_w2r1.algo with new_reader = Fastread_w2r1.new_reader ~probe }
  in
  let engine = env.Env.engine in
  (if adversarial then
     let topology = env.Env.topology in
     let adv =
       Workload.Adversary.random_skips ~seed ~topology ~t_budget:t ~window:30.0
     in
     Workload.Adversary.apply adv (Cluster_base.control cluster) engine);
  let value = ref 0 in
  let rec writer_loop i n =
    if n > 0 then begin
      incr value;
      let v = !value in
      Cluster_base.write cluster ~writer:i ~value:v ~k:(fun _ ->
          Simulation.Engine.schedule engine ~delay:10.0 (fun () ->
              writer_loop i (n - 1)))
    end
  in
  let rec reader_loop i n =
    if n > 0 then
      Cluster_base.read cluster ~reader:i ~k:(fun _ _ ->
          Simulation.Engine.schedule engine ~delay:7.0 (fun () ->
              reader_loop i (n - 1)))
  in
  for i = 0 to w - 1 do
    Simulation.Engine.schedule_at engine
      ~time:(float_of_int (3 * i))
      (fun () -> writer_loop i 3)
  done;
  for i = 0 to r - 1 do
    Simulation.Engine.schedule_at engine
      ~time:(1.0 +. float_of_int i)
      (fun () -> reader_loop i 6)
  done;
  Simulation.Engine.run engine;
  (Cluster_base.control cluster).Control.release_held ();
  Simulation.Engine.run engine;
  List.rev !probes

let configs = [ (5, 1, 2, 2); (6, 1, 3, 3); (9, 2, 2, 2); (7, 1, 2, 4) ]

let for_all_probes ~adversarial f =
  List.for_all
    (fun (s, t, w, r) ->
      List.for_all
        (fun seed ->
          let probes = run_probed ~seed ~s ~t ~w ~r ~adversarial in
          probes <> [] && List.for_all (f ~s ~t ~r) probes)
        [ 1; 2; 3; 4; 5 ])
    configs

let test_lemma2 () =
  (* Returned timestamp is maxTS or maxTS − 1. *)
  check bool "benign" true
    (for_all_probes ~adversarial:false (fun ~s:_ ~t:_ ~r:_ p ->
         p.Client_core.returned.Tstamp.ts >= p.Client_core.max_seen.Tstamp.ts - 1));
  check bool "adversarial" true
    (for_all_probes ~adversarial:true (fun ~s:_ ~t:_ ~r:_ p ->
         p.Client_core.returned.Tstamp.ts >= p.Client_core.max_seen.Tstamp.ts - 1))

let test_lemma3_no_fallback () =
  check bool "scan never falls through" true
    (for_all_probes ~adversarial:true (fun ~s:_ ~t:_ ~r:_ p ->
         not p.Client_core.fallback))

let test_mwa1_nonnegative () =
  check bool "non-negative timestamps" true
    (for_all_probes ~adversarial:true (fun ~s:_ ~t:_ ~r:_ p ->
         p.Client_core.returned.Tstamp.ts >= 0))

let test_degree_bounds () =
  check bool "degree in [1, R+1]" true
    (for_all_probes ~adversarial:true (fun ~s:_ ~t:_ ~r p ->
         match p.Client_core.degree with
         | None -> false
         | Some a -> a >= 1 && a <= r + 1))

let test_safe_regime_margin () =
  (* In the proven regime R < S/t − 2, the degree used keeps the
     certificate requirement positive: S − a·t ≥ S − (R+1)·t > t ≥ 1. *)
  check bool "certificate margin" true
    (for_all_probes ~adversarial:true (fun ~s ~t ~r:_ p ->
         match p.Client_core.degree with
         | None -> false
         | Some a -> s - (a * t) > t))

let test_lemma2_few_skips () =
  (* Lemma 2's corollary: a reader never scans past more than one
     candidate in the safe regime (the value below maxTS is admissible). *)
  check bool "at most a couple of candidates skipped" true
    (for_all_probes ~adversarial:true (fun ~s:_ ~t:_ ~r:_ p ->
         p.Client_core.candidates_skipped
         <= p.Client_core.max_seen.Tstamp.ts + 1))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "lemmas"
    [
      ( "appendix-a",
        [
          tc "Lemma 2: returns maxTS or maxTS-1" test_lemma2;
          tc "Lemma 3: no fallback" test_lemma3_no_fallback;
          tc "MWA1: non-negative timestamps" test_mwa1_nonnegative;
          tc "degree bounds" test_degree_bounds;
          tc "safe-regime certificate margin" test_safe_regime_margin;
          tc "bounded candidate scan" test_lemma2_few_skips;
        ] );
    ]
