(* Unit and property tests for the discrete-event substrate. *)

open Simulation

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:8 in
  check bool "different seeds differ" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Rng.int rng ~bound:10 in
    check bool "0 <= x < 10" true (x >= 0 && x < 10)
  done

let test_rng_int_in_range () =
  let rng = Rng.create ~seed:2 in
  for _ = 1 to 1000 do
    let x = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    check bool "in range" true (x >= -5 && x <= 5)
  done

let test_rng_float_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Rng.float rng ~bound:2.5 in
    check bool "0 <= x < 2.5" true (x >= 0.0 && x < 2.5)
  done

let test_rng_int_covers_bound () =
  let rng = Rng.create ~seed:4 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng ~bound:5) <- true
  done;
  Array.iteri (fun i b -> check bool (Printf.sprintf "value %d seen" i) true b) seen

let test_rng_split_decorrelated () =
  let a = Rng.create ~seed:9 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 20 (fun _ -> Rng.next_int64 b) in
  check bool "streams differ" true (xs <> ys)

let test_rng_copy_independent () =
  let a = Rng.create ~seed:10 in
  let _ = Rng.next_int64 a in
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.next_int64 a)
    (Rng.next_int64 b)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:11 in
  let arr = Array.init 30 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array int) "still a permutation" (Array.init 30 (fun i -> i)) sorted

let test_rng_exponential_positive () =
  let rng = Rng.create ~seed:12 in
  for _ = 1 to 200 do
    check bool "positive" true (Rng.exponential rng ~mean:5.0 >= 0.0)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  check bool "mean within 10%" true (mean > 3.6 && mean < 4.4)

(* ------------------------------------------------------------------ *)
(* Heap                                                                 *)
(* ------------------------------------------------------------------ *)

let test_heap_basic () =
  let h = Heap.create ~cmp:compare in
  check bool "empty" true (Heap.is_empty h);
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2 ];
  check int "size" 6 (Heap.size h);
  check (Alcotest.option int) "peek" (Some 1) (Heap.peek h);
  let drained = List.init 6 (fun _ -> Option.get (Heap.pop h)) in
  check (Alcotest.list int) "sorted drain" [ 1; 2; 3; 5; 8; 9 ] drained;
  check (Alcotest.option int) "empty pop" None (Heap.pop h)

let test_heap_clear () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 1; 2; 3 ];
  Heap.clear h;
  check bool "cleared" true (Heap.is_empty h)

let test_heap_duplicates () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 2; 2; 1; 1 ];
  let drained = List.init 4 (fun _ -> Option.get (Heap.pop h)) in
  check (Alcotest.list int) "dups kept" [ 1; 1; 2; 2 ] drained

let test_heap_pop_releases () =
  (* A popped element is the caller's alone: once it is dropped, the
     heap does not keep it alive, whether the heap emptied or a later
     element moved into its slot. *)
  let h = Heap.create ~cmp:(fun a b -> compare !a !b) in
  let weak = Weak.create 3 in
  let push i =
    let x = ref i in
    Weak.set weak i (Some x);
    Heap.push h x
  in
  List.iter push [ 0; 1; 2 ];
  let pop () = ignore (Sys.opaque_identity (Heap.pop h)) in
  pop ();
  pop ();
  Gc.full_major ();
  check bool "first popped element freed" false (Weak.check weak 0);
  check bool "second popped element freed" false (Weak.check weak 1);
  check bool "the one still queued kept" true (Weak.check weak 2);
  pop ();
  Gc.full_major ();
  check bool "the last one freed once the heap empties" false
    (Weak.check weak 2);
  check bool "the emptied heap still works" true
    (push 0;
     Heap.size h = 1)

let heap_sort_property =
  QCheck.Test.make ~name:"heap drain equals List.sort" ~count:300
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

let test_engine_runs_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e ~time:5.0 (fun () -> log := 5 :: !log);
  Engine.schedule_at e ~time:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule_at e ~time:3.0 (fun () -> log := 3 :: !log);
  Engine.run e;
  check (Alcotest.list int) "time order" [ 1; 3; 5 ] (List.rev !log);
  check bool "clock at last event" true (Engine.now e = 5.0)

let test_engine_fifo_at_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 10 do
    Engine.schedule_at e ~time:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  check (Alcotest.list int) "FIFO ties" (List.init 10 (fun i -> i + 1)) (List.rev !log)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule_at e ~time:2.0 (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.schedule_at: time 1 is in the past (now 2)")
    (fun () -> Engine.schedule_at e ~time:1.0 (fun () -> ()))

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e ~time:1.0 (fun () ->
      log := "a" :: !log;
      Engine.schedule e ~delay:1.0 (fun () -> log := "b" :: !log));
  Engine.run e;
  check (Alcotest.list Alcotest.string) "nested" [ "a"; "b" ] (List.rev !log);
  check int "two events" 2 (Engine.processed e)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule_at e ~time:(float_of_int i) (fun () -> incr count)
  done;
  Engine.run ~until:5.0 e;
  check int "only five ran" 5 !count;
  check int "five pending" 5 (Engine.pending e);
  Engine.run e;
  check int "rest ran" 10 !count;
  check bool "quiescent" true (Engine.is_quiescent e)

let test_engine_stop () =
  let e = Engine.create () in
  for i = 1 to 10 do
    Engine.schedule_at e ~time:(float_of_int i) (fun () -> if i = 4 then Engine.stop e)
  done;
  Engine.run e;
  check int "stopped after 4" 4 (Engine.processed e)

let test_engine_negative_delay_clipped () =
  let e = Engine.create () in
  let ran = ref false in
  Engine.schedule e ~delay:(-5.0) (fun () -> ran := true);
  Engine.run e;
  check bool "ran at now" true !ran

(* ------------------------------------------------------------------ *)
(* Latency                                                              *)
(* ------------------------------------------------------------------ *)

let test_latency_constant () =
  let rng = Rng.create ~seed:1 in
  let l = Latency.constant 3.0 in
  check bool "constant" true (Latency.sample l rng ~src:0 ~dst:1 = 3.0)

let test_latency_uniform_range () =
  let rng = Rng.create ~seed:2 in
  let l = Latency.uniform ~lo:2.0 ~hi:4.0 in
  for _ = 1 to 500 do
    let d = Latency.sample l rng ~src:0 ~dst:1 in
    check bool "in [2,4)" true (d >= 2.0 && d < 4.0)
  done

let test_latency_geo () =
  let rng = Rng.create ~seed:3 in
  let l =
    Latency.geo ~region_of:(fun n -> n / 3) ~local:1.0 ~cross:50.0 ~jitter:0.5
  in
  let local = Latency.sample l rng ~src:0 ~dst:1 in
  let cross = Latency.sample l rng ~src:0 ~dst:4 in
  check bool "local fast" true (local < 2.0);
  check bool "cross slow" true (cross >= 50.0)

let test_latency_lognormal_positive () =
  let rng = Rng.create ~seed:4 in
  let l = Latency.lognormal_like ~median:5.0 ~spread:3.0 in
  for _ = 1 to 200 do
    let d = Latency.sample l rng ~src:0 ~dst:1 in
    check bool "within spread" true (d >= 5.0 /. 3.0 && d <= 5.0 *. 3.0)
  done

let test_latency_matrix () =
  (* Full-matrix model with asymmetric (up != down) cross-region links:
     each direction draws from its own row, and every sample stays in
     [delay, delay + jitter). *)
  let delay = [| [| 0.001; 0.030 |]; [| 0.010; 0.001 |] |] in
  let jitter = [| [| 0.0005; 0.003 |]; [| 0.001; 0.0005 |] |] in
  let l =
    Latency.matrix ~region_of:(fun n -> n mod 2) ~delay ~jitter
  in
  let rng = Rng.create ~seed:5 in
  let in_band ~src ~dst =
    let a = src mod 2 and b = dst mod 2 in
    let d = Latency.sample l rng ~src ~dst in
    check bool "sample in band" true
      (d >= delay.(a).(b) && d < delay.(a).(b) +. jitter.(a).(b));
    d
  in
  for _ = 1 to 200 do
    let up = in_band ~src:0 ~dst:1 in
    let down = in_band ~src:1 ~dst:0 in
    let local = in_band ~src:0 ~dst:2 in
    check bool "up slower than down" true (up > down);
    check bool "local fastest" true (local < down)
  done;
  check bool "shape mismatch rejected" true
    (match
       Latency.matrix ~region_of:(fun n -> n) ~delay
         ~jitter:[| [| 0.0 |] |]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Network                                                              *)
(* ------------------------------------------------------------------ *)

let make_net ?(latency = Latency.constant 1.0) () =
  let e = Engine.create () in
  let net = Network.create e ~latency in
  (e, net)

let test_network_delivery () =
  let e, net = make_net () in
  let got = ref [] in
  Network.register net ~node:1 (fun env -> got := env.Network.payload :: !got);
  Network.register net ~node:0 (fun _ -> ());
  Network.send net ~src:0 ~dst:1 "hello";
  Network.send net ~src:0 ~dst:1 "world";
  Engine.run e;
  check (Alcotest.list Alcotest.string) "delivered in order" [ "hello"; "world" ]
    (List.rev !got)

let test_network_crash_drops () =
  let e, net = make_net () in
  let got = ref 0 in
  Network.register net ~node:1 (fun _ -> incr got);
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 ();
  Engine.run e;
  check int "nothing delivered" 0 !got;
  check bool "is_crashed" true (Network.is_crashed net 1);
  check int "one dropped" 1 (Network.stats net).Network.dropped

let test_network_crash_in_flight () =
  let e, net = make_net ~latency:(Latency.constant 10.0) () in
  let got = ref 0 in
  Network.register net ~node:1 (fun _ -> incr got);
  Network.send net ~src:0 ~dst:1 ();
  Engine.schedule_at e ~time:5.0 (fun () -> Network.crash net 1);
  Engine.run e;
  check int "in-flight message dropped at delivery" 0 !got

let test_network_filter_drop_and_delay () =
  let e, net = make_net () in
  let got = ref [] in
  Network.register net ~node:1 (fun env ->
      got := (env.Network.payload, Engine.now e) :: !got);
  Network.set_filter net
    (Some
       (fun env ->
         match env.Network.payload with
         | "drop" -> Network.Drop
         | "slow" -> Network.Delay 50.0
         | _ -> Network.Deliver));
  Network.send net ~src:0 ~dst:1 "drop";
  Network.send net ~src:0 ~dst:1 "slow";
  Network.send net ~src:0 ~dst:1 "fast";
  Engine.run e;
  check int "two delivered" 2 (List.length !got);
  check bool "slow at 50" true (List.mem_assoc "slow" !got && List.assoc "slow" !got = 50.0)

let test_network_hold_release () =
  let e, net = make_net () in
  let got = ref [] in
  Network.register net ~node:1 (fun env -> got := env.Network.payload :: !got);
  Network.set_filter net (Some (fun _ -> Network.Hold));
  Network.send net ~src:0 ~dst:1 "a";
  Network.send net ~src:0 ~dst:1 "b";
  Engine.run e;
  check int "held" 2 (Network.held_count net);
  check int "nothing delivered yet" 0 (List.length !got);
  Network.set_filter net None;
  Network.release_held net;
  Engine.run e;
  check (Alcotest.list Alcotest.string) "released in send order" [ "a"; "b" ]
    (List.rev !got);
  check int "held drained" 0 (Network.held_count net)

let test_network_forbid () =
  let _, net = make_net () in
  Network.forbid net (fun ~src ~dst -> src = dst);
  Alcotest.check_raises "self-send forbidden"
    (Invalid_argument "Network: send 2->2 is forbidden by the model") (fun () ->
      Network.send net ~src:2 ~dst:2 ())

let test_network_stats () =
  let e, net = make_net () in
  Network.register net ~node:1 (fun _ -> ());
  Network.send net ~src:0 ~dst:1 ();
  Network.send net ~src:0 ~dst:1 ();
  Engine.run e;
  let st = Network.stats net in
  check int "sent" 2 st.Network.sent;
  check int "delivered" 2 st.Network.delivered

(* Same seed, same run: the deliveries (virtual time, node, payload)
   of a seeded workload over a random-latency network are a pure
   function of the engine seed, and another seed changes them. *)
let test_network_same_seed_same_deliveries () =
  let run seed =
    let e = Engine.create ~seed () in
    let net = Network.create e ~latency:(Latency.uniform ~lo:1.0 ~hi:5.0) in
    let got = ref [] in
    List.iter
      (fun node ->
        Network.register net ~node (fun env ->
            got := (Engine.now e, node, env.Network.payload) :: !got))
      [ 1; 2 ];
    for i = 0 to 20 do
      Engine.schedule_at e ~time:(float_of_int i) (fun () ->
          Network.send net ~src:0 ~dst:(1 + (i mod 2)) i)
    done;
    Engine.run e;
    List.rev !got
  in
  let deliveries = Alcotest.(list (triple (float 0.0) int int)) in
  check deliveries "same seed, same deliveries" (run 5) (run 5);
  check bool "different seed, different deliveries" true (run 5 <> run 6)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "simulation"
    [
      ( "rng",
        [
          tc "determinism" test_rng_determinism;
          tc "seed sensitivity" test_rng_seed_sensitivity;
          tc "int bounds" test_rng_int_bounds;
          tc "int_in_range" test_rng_int_in_range;
          tc "float bounds" test_rng_float_bounds;
          tc "int covers bound" test_rng_int_covers_bound;
          tc "split decorrelated" test_rng_split_decorrelated;
          tc "copy independent" test_rng_copy_independent;
          tc "shuffle permutation" test_rng_shuffle_permutation;
          tc "exponential positive" test_rng_exponential_positive;
          tc "exponential mean" test_rng_exponential_mean;
        ] );
      ( "heap",
        [
          tc "basic" test_heap_basic;
          tc "clear" test_heap_clear;
          tc "duplicates" test_heap_duplicates;
          tc "pop releases the element" test_heap_pop_releases;
          QCheck_alcotest.to_alcotest heap_sort_property;
        ] );
      ( "engine",
        [
          tc "time order" test_engine_runs_in_time_order;
          tc "FIFO ties" test_engine_fifo_at_same_time;
          tc "rejects past" test_engine_rejects_past;
          tc "nested scheduling" test_engine_nested_scheduling;
          tc "run until" test_engine_until;
          tc "stop" test_engine_stop;
          tc "negative delay clipped" test_engine_negative_delay_clipped;
        ] );
      ( "latency",
        [
          tc "constant" test_latency_constant;
          tc "uniform range" test_latency_uniform_range;
          tc "geo" test_latency_geo;
          tc "lognormal" test_latency_lognormal_positive;
          tc "matrix" test_latency_matrix;
        ] );
      ( "network",
        [
          tc "delivery" test_network_delivery;
          tc "crash drops" test_network_crash_drops;
          tc "crash in flight" test_network_crash_in_flight;
          tc "filter drop/delay" test_network_filter_drop_and_delay;
          tc "hold and release" test_network_hold_release;
          tc "forbidden links" test_network_forbid;
          tc "stats" test_network_stats;
          tc "same seed, same deliveries"
            test_network_same_seed_same_deliveries;
        ] );
    ]
