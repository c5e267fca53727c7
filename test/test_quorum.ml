(* Tests for the Table 1 possibility predicates. *)

open Quorums

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Table 1 predicates                                                   *)
(* ------------------------------------------------------------------ *)

let test_w2r2_row () =
  (* Possible iff t < S/2. *)
  check bool "S=5 t=2" true (Bounds.w2r2_possible ~s:5 ~t:2);
  check bool "S=4 t=2" false (Bounds.w2r2_possible ~s:4 ~t:2);
  check bool "S=2 t=1" false (Bounds.w2r2_possible ~s:2 ~t:1);
  check bool "S=3 t=1" true (Bounds.w2r2_possible ~s:3 ~t:1)

let test_w1r2_row () =
  (* This paper: impossible for W >= 2, R >= 2, t >= 1. *)
  check bool "multi-writer impossible" false
    (Bounds.w1r2_possible ~s:10 ~t:1 ~w:2 ~r:2);
  check bool "even with many servers" false
    (Bounds.w1r2_possible ~s:100 ~t:1 ~w:3 ~r:2);
  (* Boundary cases where it IS possible: *)
  check bool "single writer (ABD'95)" true (Bounds.w1r2_possible ~s:5 ~t:2 ~w:1 ~r:9);
  check bool "t=0 trivial" true (Bounds.w1r2_possible ~s:3 ~t:0 ~w:5 ~r:5)

let test_w2r1_row () =
  (* Possible iff R < S/t - 2. *)
  check bool "S=6 t=1 R=3" true (Bounds.w2r1_possible ~s:6 ~t:1 ~r:3);
  check bool "S=6 t=1 R=4" false (Bounds.w2r1_possible ~s:6 ~t:1 ~r:4);
  check bool "S=8 t=2 R=1" true (Bounds.w2r1_possible ~s:8 ~t:2 ~r:1);
  check bool "S=8 t=2 R=2" false (Bounds.w2r1_possible ~s:8 ~t:2 ~r:2);
  check bool "S=9 t=2 R=2" true (Bounds.w2r1_possible ~s:9 ~t:2 ~r:2);
  check bool "t=0 trivial" true (Bounds.w2r1_possible ~s:4 ~t:0 ~r:50)

let test_w1r1_row () =
  check bool "multi-writer impossible" false
    (Bounds.w1r1_possible ~s:20 ~t:1 ~w:2 ~r:2);
  check bool "single-writer DGLV regime" true
    (Bounds.w1r1_possible ~s:6 ~t:1 ~w:1 ~r:3);
  check bool "single-writer beyond threshold" false
    (Bounds.w1r1_possible ~s:6 ~t:1 ~w:1 ~r:4)

let test_fast_read_threshold () =
  check int "S=6 t=1 -> R<=3" 3 (Bounds.fast_read_threshold ~s:6 ~t:1);
  check int "S=9 t=2 -> R<=2" 2 (Bounds.fast_read_threshold ~s:9 ~t:2);
  check int "S=8 t=2 -> R<=1" 1 (Bounds.fast_read_threshold ~s:8 ~t:2);
  check int "S=4 t=1 -> R<=1" 1 (Bounds.fast_read_threshold ~s:4 ~t:1);
  check bool "t=0 unbounded" true (Bounds.fast_read_threshold ~s:4 ~t:0 > 1000)

let threshold_consistency =
  QCheck.Test.make ~name:"fast_read_threshold matches w2r1_possible" ~count:500
    QCheck.(pair (int_range 3 30) (int_range 1 5))
    (fun (s, t) ->
      QCheck.assume (t < s);
      let thr = Bounds.fast_read_threshold ~s ~t in
      let w2r2 = Bounds.w2r2_possible ~s ~t in
      List.for_all
        (fun r -> Bounds.w2r1_possible ~s ~t ~r = (r <= thr && w2r2))
        (List.init 10 (fun i -> i + 1)))

let test_rounds_and_rank () =
  check int "W2R2 writes" 2 (Bounds.write_rounds Bounds.W2R2);
  check int "W1R2 writes" 1 (Bounds.write_rounds Bounds.W1R2);
  check int "W2R1 reads" 1 (Bounds.read_rounds Bounds.W2R1);
  check int "W1R1 total" 2 (Bounds.latency_rank Bounds.W1R1);
  check int "W2R2 total" 4 (Bounds.latency_rank Bounds.W2R2);
  check bool "lattice ordering" true
    (Bounds.latency_rank Bounds.W1R1 < Bounds.latency_rank Bounds.W1R2
    && Bounds.latency_rank Bounds.W1R2 < Bounds.latency_rank Bounds.W2R2)

let test_dispatch () =
  List.iter
    (fun p ->
      check bool
        (Bounds.design_point_to_string p ^ " dispatch consistent")
        (Bounds.possible p ~s:6 ~t:1 ~w:2 ~r:2)
        (match p with
        | Bounds.W2R2 -> Bounds.w2r2_possible ~s:6 ~t:1
        | Bounds.W1R2 -> Bounds.w1r2_possible ~s:6 ~t:1 ~w:2 ~r:2
        | Bounds.W2R1 -> Bounds.w2r1_possible ~s:6 ~t:1 ~r:2
        | Bounds.W1R1 -> Bounds.w1r1_possible ~s:6 ~t:1 ~w:2 ~r:2))
    Bounds.all_design_points

let test_validation () =
  check bool "s<2 raises" true
    (try ignore (Bounds.w2r2_possible ~s:1 ~t:0); false
     with Invalid_argument _ -> true);
  check bool "t>=s raises" true
    (try ignore (Bounds.w2r1_possible ~s:3 ~t:3 ~r:1); false
     with Invalid_argument _ -> true)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "quorum"
    [
      ( "table1",
        [
          tc "W2R2 row" test_w2r2_row;
          tc "W1R2 row" test_w1r2_row;
          tc "W2R1 row" test_w2r1_row;
          tc "W1R1 row" test_w1r1_row;
          tc "fast-read threshold" test_fast_read_threshold;
          QCheck_alcotest.to_alcotest threshold_consistency;
          tc "rounds and rank" test_rounds_and_rank;
          tc "dispatch" test_dispatch;
          tc "validation" test_validation;
        ] );
    ]
