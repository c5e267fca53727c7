(* Geo-replication scenario: the paper's motivating trade-off, measured.

   A Cassandra-style deployment: five replicas across three regions,
   clients co-located with one region.  We compare every design point on
   read/write latency and on the consistency the checker actually
   grades, including under an adversarial schedule.

     dune exec examples/geo_replication.exe *)

open Mwregister

let latency =
  Latency.geo ~region_of:(fun n -> n mod 3) ~local:5.0 ~cross:40.0 ~jitter:10.0

let plans =
  [
    Runtime.write_plan ~writer:0 ~think:50.0 4;
    Runtime.write_plan ~writer:1 ~start_at:10.0 ~think:60.0 4;
    Runtime.read_plan ~reader:0 ~start_at:5.0 ~think:40.0 8;
    Runtime.read_plan ~reader:1 ~start_at:15.0 ~think:45.0 8;
  ]

(* The schedule that breaks naive fast writes: the higher-id writer goes
   first, sequentially. *)
let inversion_plans =
  [
    Runtime.write_plan ~writer:1 ~start_at:0.0 1;
    Runtime.write_plan ~writer:0 ~start_at:300.0 1;
    Runtime.read_plan ~reader:0 ~start_at:600.0 1;
  ]

let () =
  print_endline "== geo-replicated register: latency vs consistency ==";
  Printf.printf "%-28s %-7s %-11s %-11s %-12s %s\n" "protocol" "rounds"
    "read p50" "write p50" "benign" "adversarial";
  print_endline (String.make 88 '-');
  List.iter
    (fun register ->
      let dp = Registry.design_point register in
      let v =
        run_and_check ~seed:11 ~latency ~register ~s:5 ~t:1 ~w:2 ~r:2 plans
      in
      let adv =
        run_and_check ~seed:12 ~latency ~register ~s:5 ~t:1 ~w:2 ~r:2
          inversion_plans
      in
      let reads = Stats.reads v.outcome.Runtime.history in
      let writes = Stats.writes v.outcome.Runtime.history in
      Printf.printf "%-28s W%dR%d    %-11.1f %-11.1f %-12s %s\n"
        (Registry.name register) (Bounds.write_rounds dp) (Bounds.read_rounds dp)
        reads.Stats.p50 writes.Stats.p50
        (Consistency.level_to_string v.consistency)
        (Consistency.level_to_string adv.consistency))
    Registry.multi_writer;
  print_endline "";
  print_endline
    "The Cassandra dilemma from the paper's introduction, quantified: a fast";
  print_endline
    "(one round-trip) write buys ~half the write latency but surrenders";
  print_endline
    "atomicity the moment two writers interleave badly — and Theorem 1 says";
  print_endline
    "no cleverness can fix it.  The fast READ of the W2R1 register is the";
  print_endline "only latency win that keeps the contract."
