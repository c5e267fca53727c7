open Perfbench
open Transport
open Workload

let close = Alcotest.float 1e-12

(* ---- exact percentiles and the tail rule ---- *)

let ascending n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let xs = ascending 10 in
  Alcotest.(check close) "p50 of 1..10" 5.0 (Pct.median xs);
  Alcotest.(check close) "p90 of 1..10" 9.0 (Pct.percentile xs 90.0);
  Alcotest.(check close) "p100 is the max" 10.0 (Pct.percentile xs 100.0);
  Alcotest.(check close) "p0 is the min" 1.0 (Pct.percentile xs 0.0);
  Alcotest.(check close) "single sample" 7.0 (Pct.median [| 7.0 |]);
  Alcotest.(check close) "sorted copies" 2.0
    (Pct.median (Pct.sorted [| 3.0; 1.0; 2.0 |]));
  Alcotest.check_raises "no samples"
    (Invalid_argument "Pct.percentile: no samples") (fun () ->
      ignore (Pct.median [||]))

let test_tail_small () =
  for n = 0 to Pct.min_beyond do
    Alcotest.(check bool)
      (Printf.sprintf "%d samples: no qualifying percentile" n)
      true
      (Pct.tail (ascending n) = None)
  done;
  match Pct.tail (ascending 11) with
  | Some t ->
    Alcotest.(check close) "11 samples: the minimum" 1.0 t.Pct.value;
    Alcotest.(check int) "10 beyond" 10 t.Pct.beyond
  | None -> Alcotest.fail "11 samples must give a tail"

let test_tail_rule () =
  List.iter
    (fun (n, pct, value) ->
      match Pct.tail (ascending n) with
      | Some t ->
        let name what = Printf.sprintf "n=%d %s" n what in
        Alcotest.(check close) (name "percentile") pct t.Pct.pct;
        Alcotest.(check close) (name "value") value t.Pct.value;
        Alcotest.(check int) (Printf.sprintf "n=%d beyond" n) 10 t.Pct.beyond;
        (* The reported percentile reads back the same sample. *)
        Alcotest.(check close)
          (Printf.sprintf "n=%d consistent" n)
          t.Pct.value
          (Pct.percentile (ascending n) t.Pct.pct)
      | None -> Alcotest.fail "tail expected")
    [ (20, 50.0, 10.0); (100, 90.0, 90.0); (1000, 99.0, 990.0) ]

(* ---- seeded inputs ---- *)

let ycsb = Ycsb.create ~dist:(Ycsb.Zipfian Ycsb.default_theta) ~keys:1000

let draws ~seed ~client n =
  let st = Gen.stream ~seed ~client ycsb Ycsb.A in
  List.init n (fun _ -> Gen.next st)

let test_stream_determinism () =
  Alcotest.(check bool) "same seed, same key/op stream" true
    (draws ~seed:7 ~client:0 500 = draws ~seed:7 ~client:0 500);
  Alcotest.(check bool) "clients draw different streams" false
    (draws ~seed:7 ~client:0 500 = draws ~seed:7 ~client:1 500);
  Alcotest.(check bool) "seeds draw different streams" false
    (draws ~seed:7 ~client:0 500 = draws ~seed:8 ~client:0 500)

let uniform = Ycsb.create ~dist:Ycsb.Uniform ~keys:32768

let sched seed = Gen.schedule ~seed ~rate:200.0 ~seconds:5.0 uniform Ycsb.B

let test_schedule_determinism () =
  let a = sched 3 in
  Alcotest.(check bool) "same seed, identical arrival schedule" true
    (a = sched 3);
  Alcotest.(check bool) "another seed, another schedule" false (a = sched 4);
  let n = Array.length a in
  (* Poisson(1000): five standard deviations either side. *)
  Alcotest.(check bool) "about rate x seconds arrivals" true
    (n > 840 && n < 1160);
  Array.iteri
    (fun i arr ->
      Alcotest.(check bool) "due times ascend within the phase" true
        (arr.Gen.due >= 0.0 && arr.Gen.due < 5.0
        && (i = 0 || a.(i - 1).Gen.due <= arr.Gen.due)))
    a;
  Alcotest.(check int) "all due by the end" n (Gen.due_by a 5.0);
  Alcotest.(check int) "none due before the start" 0 (Gen.due_by a (-1.0))

let test_kept_up () =
  let steady = List.init 100 (fun i -> (float_of_int i /. 10.0, i mod 3)) in
  Alcotest.(check bool) "a steady backlog kept up" true
    (Gen.kept_up ~seconds:10.0 steady);
  let growing = List.init 100 (fun i -> (float_of_int i /. 10.0, i / 4)) in
  Alcotest.(check bool) "a growing backlog did not" false
    (Gen.kept_up ~seconds:10.0 growing)

(* ---- nominal round trip and overshoot ---- *)

let test_nominal_lan () =
  let p = Geo.lan in
  let leg = Geo.base p ~src:3 ~dst:0
  and jit = Geo.jitter_bound p ~src:3 ~dst:0 in
  let want = (2.0 *. leg) +. jit in
  Alcotest.(check close) "lan: both legs plus mean jitter" want
    (Rtt.nominal p ~s:3 ~tol:1 ~clients:[ 3; 4 ]);
  Alcotest.(check close) "lan: 0.8 ms" 0.0008 want;
  Alcotest.(check close) "overshoot is p50 minus nominal" 0.0014
    (Rtt.overshoot p ~s:3 ~tol:1 ~clients:[ 3; 4 ] ~rt_p50:(want +. 0.0014))

let test_nominal_wan () =
  let p = Geo.wan_3region in
  (* Servers 0..4 sit in regions 0,1,2,0,1; clients 5 and 6 in regions
     2 and 0.  A 4-of-5 quorum always needs a cross-region server. *)
  let link c i =
    Geo.base p ~src:c ~dst:i +. Geo.base p ~src:i ~dst:c
    +. ((Geo.jitter_bound p ~src:c ~dst:i +. Geo.jitter_bound p ~src:i ~dst:c)
       /. 2.0)
  in
  let cross = link 5 0 in
  Alcotest.(check bool) "server 0 is cross-region for client 5" true
    (Geo.region_of p 5 <> Geo.region_of p 0);
  Alcotest.(check close) "each client's 4th-fastest server is cross-region"
    cross
    (Rtt.nominal p ~s:5 ~tol:1 ~clients:[ 5; 6 ]);
  Alcotest.(check close) "wan: 84 ms" 0.084 cross;
  Alcotest.(check close) "a 5-of-5 local-region client waits the same" cross
    (Rtt.client_nominal p ~s:5 ~tol:0 6)

(* ---- standalone keyspace costing and span breakdown ---- *)

let test_keyspace_classes () =
  let key i = Printf.sprintf "k%05d" i in
  (* 4 097 distinct keys overflow the 4 096 hot set once. *)
  let warm = List.init 4097 (fun i -> (key i, `Read)) in
  let ks =
    Micro.keyspace ~warm
      ~timed:[ (key 4096, `Read); (key 0, `Read) ]
      ~rounds:(fun _ -> 2)
  in
  Alcotest.(check int) "one demotion pass" 1 (Array.length ks.Micro.demote_ms);
  (* The newest key is resident for both rounds; the oldest was demoted,
     so its first round rehydrates and its second hits. *)
  Alcotest.(check int) "hits" 3 (Array.length ks.Micro.hit_us);
  Alcotest.(check int) "misses" 1 (Array.length ks.Micro.miss_us)

let test_breakdown () =
  let span op name start stop = { Trace.op; name; key = "k"; start; stop } in
  let rts, self, rt_per_op =
    Trace.breakdown
      [
        span 1 "write" 0.0 10.0;
        span 1 "rt.query" 1.0 4.0;
        span 1 "rt.update" 5.0 9.0;
        span 2 "read" 20.0 23.0;
        span 2 "rt.query" 20.5 22.5;
      ]
  in
  Alcotest.(check int) "three round trips" 3 (Array.length rts);
  Alcotest.(check (list close)) "self = op minus its round trips" [ 1.0; 3.0 ]
    (List.sort compare (Array.to_list self));
  Alcotest.(check (list close)) "round-trip time per op" [ 2.0; 7.0 ]
    (List.sort compare (Array.to_list rt_per_op))

let () =
  Alcotest.run "perfbench"
    [
      ( "pct",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentile;
          Alcotest.test_case "tail rule on small counts" `Quick test_tail_small;
          Alcotest.test_case "tail rule keeps ten beyond" `Quick test_tail_rule;
        ] );
      ( "gen",
        [
          Alcotest.test_case "key/op stream from the seed" `Quick
            test_stream_determinism;
          Alcotest.test_case "arrival schedule from the seed" `Quick
            test_schedule_determinism;
          Alcotest.test_case "backlog growth check" `Quick test_kept_up;
        ] );
      ( "rtt",
        [
          Alcotest.test_case "lan nominal and overshoot" `Quick
            test_nominal_lan;
          Alcotest.test_case "wan-3region quorum nominal" `Quick
            test_nominal_wan;
        ] );
      ( "layers",
        [
          Alcotest.test_case "keyspace hit/miss/demotion" `Quick
            test_keyspace_classes;
          Alcotest.test_case "op self time" `Quick test_breakdown;
        ] );
    ]
