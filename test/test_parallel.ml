(* Tests for the work-sharing domain pool and for the determinism of
   everything threaded through it: Pool.map against List.map, Table-1
   shaped sweeps sequential vs parallel, hunter and exhaustive-sweep
   parity, exception propagation, and qcheck properties that the zone
   check in Checker.Atomicity gives the verdict and the witness kind of
   an all-pairs saturation reference implementation. *)

open Workload
module Pool = Parallel.Pool
module Op = Histories.Op
module History = Histories.History

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Pool primitives                                                      *)
(* ------------------------------------------------------------------ *)

let test_map_matches_list_map () =
  let xs = List.init 100 (fun i -> i - 50) in
  let f x = (x * x) - (3 * x) in
  let expected = List.map f xs in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      check (Alcotest.list int)
        (Printf.sprintf "map on %d domains" domains)
        expected (Pool.map pool f xs))
    [ 1; 4 ];
  check (Alcotest.list int) "empty" [] (Pool.map (Pool.create ~domains:4 ()) succ []);
  check (Alcotest.list int) "singleton" [ 8 ] (Pool.map (Pool.create ~domains:4 ()) succ [ 7 ])

let test_map_reduce_ordered () =
  (* String concatenation is non-commutative: any completion-order
     reduction would scramble it. *)
  let xs = List.init 60 string_of_int in
  let expected = String.concat "," xs in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      let got =
        Pool.map_reduce pool
          ~map:(fun s -> s)
          ~reduce:(fun acc s -> if acc = "" then s else acc ^ "," ^ s)
          ~init:"" xs
      in
      check Alcotest.string
        (Printf.sprintf "ordered reduce on %d domains" domains)
        expected got)
    [ 1; 4 ]

let test_exception_reraised () =
  let pool = Pool.create ~domains:4 () in
  Alcotest.check_raises "task failure reaches the caller"
    (Failure "task 5 exploded") (fun () ->
      ignore
        (Pool.map pool
           (fun i -> if i = 5 then failwith "task 5 exploded" else i)
           (List.init 40 (fun i -> i))));
  (* The pool is stateless: the same pool value works after a failure. *)
  check (Alcotest.list int) "pool survives" [ 2; 3 ]
    (Pool.map pool succ [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Table-1-shaped sweeps: parallel counts equal sequential counts       *)
(* ------------------------------------------------------------------ *)

let sweep_counts ~register ~pool =
  let tasks =
    List.concat_map
      (fun shape -> List.init 10 (fun i -> (shape, i + 1)))
      [ Hunter.Benign; Hunter.Skips; Hunter.Crash ]
  in
  let verdicts =
    match pool with
    | None ->
      List.map
        (fun (shape, seed) ->
          Hunter.run_shape ~register ~s:5 ~t:1 ~w:2 ~r:2 ~seed shape)
        tasks
    | Some pool ->
      Pool.map pool
        (fun (shape, seed) ->
          Hunter.run_shape ~register ~s:5 ~t:1 ~w:2 ~r:2 ~seed shape)
        tasks
  in
  List.fold_left
    (fun (atomic, violated) -> function
      | None, _ -> (atomic + 1, violated)
      | Some _, _ -> (atomic, violated + 1))
    (0, 0) verdicts

let test_sweep_counts_match () =
  List.iter
    (fun register ->
      let seq = sweep_counts ~register ~pool:None in
      let par = sweep_counts ~register ~pool:(Some (Pool.create ~domains:4 ())) in
      check (Alcotest.pair int int)
        (Registers.Registry.name register)
        seq par)
    [ Registers.Registry.fastread_w2r1; Registers.Registry.naive_w1r2 ]

let test_hunt_parity () =
  let pool = Pool.create ~domains:4 () in
  let register = Registers.Registry.naive_w1r2 in
  let seq, seq_runs = Hunter.hunt ~seeds_per_shape:10 ~register ~s:5 ~t:1 ~w:2 ~r:2 () in
  let par, par_runs =
    Hunter.hunt ~seeds_per_shape:10 ~pool ~register ~s:5 ~t:1 ~w:2 ~r:2 ()
  in
  check int "runs" seq_runs par_runs;
  match (seq, par) with
  | None, None -> ()
  | Some a, Some b ->
    check bool "same shape" true (a.Hunter.shape = b.Hunter.shape);
    check int "same seed" a.Hunter.seed b.Hunter.seed;
    check int "same runs_tried" a.Hunter.runs_tried b.Hunter.runs_tried;
    check bool "same mwa" true (a.Hunter.mwa_failure = b.Hunter.mwa_failure)
  | _ -> Alcotest.fail "sequential and parallel hunts disagree on finding"

let test_exhaustive_parity () =
  (* max_runs below the full sweep exercises the truncation slicing. *)
  List.iter
    (fun max_runs ->
      let run pool =
        Exhaustive.explore ~max_runs ~pool
          ~register:Registers.Registry.naive_w1r2 ~s:3 ~w:2 ~r:1 ()
      in
      let seq = run (Pool.create ~domains:1 ()) in
      let par = run (Pool.create ~domains:4 ()) in
      check int "runs" seq.Exhaustive.runs par.Exhaustive.runs;
      check bool "exhaustive flag" seq.Exhaustive.exhaustive par.Exhaustive.exhaustive;
      check int "violations" seq.Exhaustive.violations par.Exhaustive.violations;
      match (seq.Exhaustive.first, par.Exhaustive.first) with
      | None, None -> ()
      | Some a, Some b ->
        check (Alcotest.list int) "first order" a.Exhaustive.order b.Exhaustive.order;
        check
          (Alcotest.list (Alcotest.pair int int))
          "first skips" a.Exhaustive.skips b.Exhaustive.skips
      | _ -> Alcotest.fail "sequential and parallel sweeps disagree on first")
    [ 3_000; 100_000 ]

(* ------------------------------------------------------------------ *)
(* The zone checker: qcheck against an all-pairs saturation reference  *)
(* ------------------------------------------------------------------ *)

(* Random well-formed histories: per-process sequential intervals with
   overlapping lifetimes across processes, unique written values, reads
   returning either a written value or the initial value, occasionally a
   pending last operation. *)
let build_history seed =
  let rng = Random.State.make [| seed |] in
  let frand lo hi = lo +. Random.State.float rng (hi -. lo) in
  let id = ref 0 in
  let value = ref 100 in
  let ops = ref [] in
  let written = ref [ History.initial_value ] in
  let nw = 1 + Random.State.int rng 3 in
  for wi = 0 to nw - 1 do
    let count = 1 + Random.State.int rng 3 in
    let now = ref (frand 0.0 10.0) in
    for k = 0 to count - 1 do
      let inv = !now in
      let dur = frand 0.5 8.0 in
      let pending = k = count - 1 && Random.State.int rng 10 = 0 in
      let resp = if pending then None else Some (inv +. dur) in
      incr id;
      incr value;
      written := !value :: !written;
      ops := Op.write ~id:!id ~proc:(Op.Writer wi) ~value:!value ~inv ~resp :: !ops;
      now := inv +. dur +. frand 0.1 4.0
    done
  done;
  let values = Array.of_list !written in
  let nr = 1 + Random.State.int rng 3 in
  for ri = 0 to nr - 1 do
    let count = 1 + Random.State.int rng 4 in
    let now = ref (frand 0.0 10.0) in
    for k = 0 to count - 1 do
      let inv = !now in
      let dur = frand 0.5 8.0 in
      let pending = k = count - 1 && Random.State.int rng 10 = 0 in
      let resp = if pending then None else Some (inv +. dur) in
      let result =
        Some values.(Random.State.int rng (Array.length values))
      in
      incr id;
      ops := Op.read ~id:!id ~proc:(Op.Reader ri) ~inv ~resp ~result :: !ops;
      now := inv +. dur +. frand 0.1 4.0
    done
  done;
  History.of_ops !ops

(* Reference implementation: the all-pairs saturation checker, building
   the E1-E4 obligation graph with [Op.precedes] scans.  Returns the
   witness kind it would report: an unwritten read first, then the first
   future or stale read (history order), then an ordering cycle. *)
let reference h =
  let initial =
    Op.write ~id:(-1) ~proc:(Op.Writer (-1)) ~value:History.initial_value
      ~inv:neg_infinity ~resp:(Some neg_infinity)
  in
  let h = History.strip_pending_reads h in
  let writes = Array.of_list (initial :: History.writes h) in
  let n = Array.length writes in
  let value_index = Hashtbl.create n in
  Array.iteri
    (fun i w ->
      match Op.written_value w with
      | Some v -> Hashtbl.replace value_index v i
      | None -> ())
    writes;
  let reads_or_err =
    List.fold_left
      (fun acc (r : Op.t) ->
        match acc with
        | None -> None
        | Some rs -> (
          match r.Op.result with
          | None -> Some rs
          | Some v -> (
            match Hashtbl.find_opt value_index v with
            | None -> None (* unwritten value *)
            | Some wi -> Some ((r, wi) :: rs))))
      (Some []) (History.reads h)
  in
  match reads_or_err with
  | None -> "unwritten-value"
  | Some reads ->
    let reads = Array.of_list (List.rev reads) in
    let local =
      Array.fold_left
        (fun acc (r, wi) ->
          if acc <> "ok" then acc
          else if Op.precedes r writes.(wi) then "future-read"
          else if
            Array.exists
              (fun w' ->
                w'.Op.id <> writes.(wi).Op.id
                && Op.precedes writes.(wi) w'
                && Op.precedes w' r)
              writes
          then "stale-read"
          else "ok")
        "ok" reads
    in
    if local <> "ok" then local
    else begin
      let adj = Array.make_matrix n n false in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j && Op.precedes writes.(i) writes.(j) then adj.(i).(j) <- true
        done
      done;
      Array.iter
        (fun (r, wi) ->
          for j = 0 to n - 1 do
            if j <> wi then begin
              if Op.precedes writes.(j) r then adj.(j).(wi) <- true;
              if Op.precedes r writes.(j) then adj.(wi).(j) <- true
            end
          done)
        reads;
      let nr = Array.length reads in
      for a = 0 to nr - 1 do
        for b = 0 to nr - 1 do
          if a <> b then begin
            let r1, w1 = reads.(a) and r2, w2 = reads.(b) in
            if w1 <> w2 && Op.precedes r1 r2 then adj.(w1).(w2) <- true
          end
        done
      done;
      let color = Array.make n 0 in
      let cyclic = ref false in
      let rec visit u =
        color.(u) <- 1;
        for v = 0 to n - 1 do
          if adj.(u).(v) then
            if color.(v) = 1 then cyclic := true
            else if color.(v) = 0 then visit v
        done;
        color.(u) <- 2
      in
      for u = 0 to n - 1 do
        if color.(u) = 0 then visit u
      done;
      if !cyclic then "ordering-cycle" else "ok"
    end

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let saturate_property =
  QCheck.Test.make ~count:300 ~name:"saturate optimisation preserves verdicts"
    seed_arb
    (fun seed ->
      let h = build_history seed in
      QCheck.assume (History.well_formed h = Ok ());
      Checker.Atomicity.is_atomic h = (reference h = "ok"))

let witness_kind_property =
  QCheck.Test.make ~count:2000 ~name:"zone checker reports the reference witness kind"
    seed_arb
    (fun seed ->
      let h = build_history seed in
      QCheck.assume (History.well_formed h = Ok ());
      let kind =
        match Checker.Atomicity.check h with
        | Ok () -> "ok"
        | Error w -> Checker.Witness.short w
      in
      kind = reference h)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches List.map" `Quick test_map_matches_list_map;
          Alcotest.test_case "map_reduce is ordered" `Quick test_map_reduce_ordered;
          Alcotest.test_case "exceptions re-raised" `Quick test_exception_reraised;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sweep counts match" `Slow test_sweep_counts_match;
          Alcotest.test_case "hunt parity" `Slow test_hunt_parity;
          Alcotest.test_case "exhaustive parity" `Slow test_exhaustive_parity;
        ] );
      ( "checker",
        [
          QCheck_alcotest.to_alcotest saturate_property;
          QCheck_alcotest.to_alcotest witness_kind_property;
        ] );
    ]
