(* Tests for the register protocols: the replica (Algorithm 2), the
   admissible predicate, and the behaviour of each protocol under both
   benign and adversarial schedules. *)

open Protocol
open Registers

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let tag ts wid = { Tstamp.ts; wid }
let value ts wid payload = { Wire.tag = tag ts wid; payload }

(* The replica as it was before its valuevector became one sorted array:
   a [Hashtbl] keyed by tag with an [Int] set per entry, pruned by
   fold + sort.  Kept verbatim (comments aside) as the model the flat
   layout must match reply for reply. *)
module Ref_replica = struct
  module Iset = Set.Make (Int)

  type entry = { payload : int; mutable updated : Iset.t }

  type t = {
    mutable current : Wire.value;
    vector : (Tstamp.t, entry) Hashtbl.t;
  }

  let max_vector = 32

  let max_wire_updated = 8

  let create () =
    let t = { current = Wire.initial_value_entry; vector = Hashtbl.create 16 } in
    Hashtbl.replace t.vector Tstamp.initial
      { payload = Wire.initial_value_entry.Wire.payload; updated = Iset.empty };
    t

  let prune t =
    let n = Hashtbl.length t.vector in
    if n > max_vector then begin
      let tags = Hashtbl.fold (fun tag _ acc -> tag :: acc) t.vector [] in
      let tags = List.sort Tstamp.compare tags in
      let drop = n - max_vector in
      List.iteri
        (fun i tag -> if i < drop then Hashtbl.remove t.vector tag)
        tags
    end

  let update_unpruned t (v : Wire.value) c =
    match Hashtbl.find_opt t.vector v.Wire.tag with
    | Some e ->
      e.updated <- Iset.add c e.updated;
      if Wire.compare_value v t.current > 0 then t.current <- v
    | None ->
      Hashtbl.replace t.vector v.Wire.tag
        { payload = v.Wire.payload; updated = Iset.singleton c };
      if Wire.compare_value v t.current > 0 then t.current <- v

  let update t (v : Wire.value) c =
    update_unpruned t v c;
    prune t

  let snapshot t =
    Hashtbl.fold
      (fun tag e acc ->
        (({ Wire.tag; payload = e.payload } : Wire.value), Iset.elements e.updated)
        :: acc)
      t.vector []
    |> List.sort (fun (a, _) (b, _) -> Wire.compare_value a b)

  let wire_updated ~client u =
    if Iset.cardinal u <= max_wire_updated then Iset.elements u
    else begin
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: tl -> x :: take (n - 1) tl
      in
      if Iset.mem client u then
        client :: take (max_wire_updated - 1) (Iset.elements (Iset.remove client u))
      else take max_wire_updated (Iset.elements u)
    end

  let snapshot_wire t ~client =
    Hashtbl.fold
      (fun tag e acc ->
        ( ({ Wire.tag; payload = e.payload } : Wire.value),
          wire_updated ~client e.updated )
        :: acc)
      t.vector []
    |> List.sort (fun (a, _) (b, _) -> Wire.compare_value a b)

  let handle t ~client req =
    match req with
    | Wire.Update v ->
      update t v client;
      Wire.Write_ack { current = t.current }
    | Wire.Query vq ->
      List.iter (fun v -> update_unpruned t v client) vq;
      Hashtbl.iter (fun _ e -> e.updated <- Iset.add client e.updated) t.vector;
      let rep =
        Wire.Read_ack { current = t.current; vector = snapshot_wire t ~client }
      in
      prune t;
      rep

  type state = { s_current : Wire.value; s_vector : (Wire.value * int list) list }

  let save t = { s_current = t.current; s_vector = snapshot t }

  let load st =
    let t = create () in
    List.iter
      (fun ((v : Wire.value), updated) ->
        match Hashtbl.find_opt t.vector v.Wire.tag with
        | Some e -> e.updated <- Iset.union e.updated (Iset.of_list updated)
        | None ->
          Hashtbl.replace t.vector v.Wire.tag
            { payload = v.Wire.payload; updated = Iset.of_list updated })
      st.s_vector;
    t.current <- st.s_current;
    t

  let current t = t.current
end

(* ------------------------------------------------------------------ *)
(* Tstamp                                                               *)
(* ------------------------------------------------------------------ *)

let test_tstamp_order () =
  check bool "ts dominates" true (Tstamp.compare (tag 1 9) (tag 2 0) < 0);
  check bool "wid breaks ties" true (Tstamp.compare (tag 2 0) (tag 2 1) < 0);
  check bool "initial smallest" true
    (Tstamp.compare Tstamp.initial (tag 0 0) < 0);
  check bool "max" true (Tstamp.equal (Tstamp.max (tag 1 0) (tag 1 1)) (tag 1 1));
  check bool "next" true (Tstamp.equal (Tstamp.next (tag 3 7) ~wid:2) (tag 4 2))

(* ------------------------------------------------------------------ *)
(* Replica (Algorithm 2)                                                *)
(* ------------------------------------------------------------------ *)

(* The vector as the replica's durable state shows it: the replica
   exposes no other view of its layout. *)
let vector_size rep = List.length (Replica.save rep).Replica.s_vector

let updated_set rep (v : Wire.value) =
  match
    List.find_opt
      (fun ((w : Wire.value), _) -> Tstamp.equal w.Wire.tag v.Wire.tag)
      (Replica.save rep).Replica.s_vector
  with
  | Some (_, u) -> u
  | None -> []

let test_replica_update_monotone () =
  let rep = Replica.create () in
  ignore (Replica.handle rep ~client:10 (Wire.Update (value 1 0 101)));
  check bool "current is v1" true
    (Tstamp.equal (Replica.current rep).Wire.tag (tag 1 0));
  ignore (Replica.handle rep ~client:11 (Wire.Update (value 3 1 103)));
  ignore (Replica.handle rep ~client:12 (Wire.Update (value 2 0 102)));
  check bool "older update does not regress current" true
    (Tstamp.equal (Replica.current rep).Wire.tag (tag 3 1));
  check int "all values retained" 4 (vector_size rep)

let test_replica_updated_sets () =
  let rep = Replica.create () in
  ignore (Replica.handle rep ~client:10 (Wire.Update (value 1 0 101)));
  ignore (Replica.handle rep ~client:11 (Wire.Update (value 1 0 101)));
  check (Alcotest.list int) "both updaters recorded" [ 10; 11 ]
    (updated_set rep (value 1 0 101))

let test_replica_query_folds_queue () =
  let rep = Replica.create () in
  let rep_ack = Replica.handle rep ~client:20 (Wire.Query [ value 2 1 102 ]) in
  (match rep_ack with
  | Wire.Read_ack { current; vector } ->
    check bool "queued value became current" true
      (Tstamp.equal current.Wire.tag (tag 2 1));
    check bool "vector carries it" true
      (List.exists (fun (v, _) -> Tstamp.equal v.Wire.tag (tag 2 1)) vector)
  | Wire.Write_ack _ -> Alcotest.fail "expected read ack");
  check (Alcotest.list int) "client enrolled" [ 20 ]
    (updated_set rep (value 2 1 102))

let test_replica_enrolls_reader_in_current () =
  (* The Lemma-8 rule: replying to a query adds the client to the
     *current* value's updated set even when the client didn't carry it. *)
  let rep = Replica.create () in
  ignore (Replica.handle rep ~client:10 (Wire.Update (value 1 0 101)));
  ignore (Replica.handle rep ~client:33 (Wire.Query []));
  check (Alcotest.list int) "reader enrolled in current" [ 10; 33 ]
    (updated_set rep (value 1 0 101))

let test_replica_initial_state () =
  let rep = Replica.create () in
  check bool "initial current" true
    (Tstamp.equal (Replica.current rep).Wire.tag Tstamp.initial);
  check int "initial vector" 1 (vector_size rep)

let test_replica_vector_pruned () =
  (* The valuevector is a recency window: past [max_vector] entries the
     smallest tags are evicted, and [current] (the largest) survives. *)
  let rep = Replica.create () in
  let n = Replica.max_vector + 10 in
  for ts = 1 to n do
    ignore (Replica.handle rep ~client:0 (Wire.Update (value ts 0 (100 + ts))))
  done;
  check int "window size" Replica.max_vector (vector_size rep);
  check bool "current retained" true
    (Tstamp.equal (Replica.current rep).Wire.tag (tag n 0));
  check (Alcotest.list int) "oldest evicted" []
    (updated_set rep (value 1 0 101));
  (* A pruned value a client still tracks is resurrected for the reply
     that echoes it — with the client enrolled — before the window is
     re-enforced (the certificate regeneration the bound relies on). *)
  match Replica.handle rep ~client:7 (Wire.Query [ value 1 0 101 ]) with
  | Wire.Read_ack { vector; _ } ->
    let _, updated =
      List.find (fun (v, _) -> Tstamp.equal v.Wire.tag (tag 1 0)) vector
    in
    check bool "echoed value certified in reply" true (List.mem 7 updated);
    check bool "window re-enforced after reply" true
      (vector_size rep <= Replica.max_vector)
  | Wire.Write_ack _ -> Alcotest.fail "expected read ack"

let test_replica_wire_updated_truncated () =
  (* READACKs carry at most [max_wire_updated] ids per entry, and the
     querying client is always among them; the replica's own set stays
     complete (recovery and the lemma tests need it). *)
  let rep = Replica.create () in
  let n = Replica.max_wire_updated + 20 in
  for c = 1 to n do
    ignore (Replica.handle rep ~client:c (Wire.Update (value 1 0 101)))
  done;
  let querier = n + 5 in
  (match Replica.handle rep ~client:querier (Wire.Query []) with
  | Wire.Read_ack { vector; _ } ->
    let _, updated =
      List.find (fun (v, _) -> Tstamp.equal v.Wire.tag (tag 1 0)) vector
    in
    check bool "wire set capped" true
      (List.length updated <= Replica.max_wire_updated);
    check bool "querier included" true (List.mem querier updated)
  | Wire.Write_ack _ -> Alcotest.fail "expected read ack");
  check int "replica set complete" (n + 1)
    (List.length (updated_set rep (value 1 0 101)))

let replica_op_gen =
  let open QCheck.Gen in
  (* ts × wid spans far more than [max_vector] tags, yet tags collide
     often (payloads too may differ under one tag: the first one
     stays); wid −1 at ts 0 is the initial value's own tag. *)
  let v =
    map3 (fun ts wid payload -> value ts wid payload) (int_range 0 60)
      (int_range (-1) 2) (int_range 0 3)
  in
  let client = int_range 0 40 in
  frequency
    [
      (3, map2 (fun c v -> (c, Wire.Update v)) client v);
      (2, map2 (fun c vq -> (c, Wire.Query vq)) client (list_size (int_range 0 4) v));
    ]

let print_ops ops =
  String.concat "; "
    (List.map (fun (c, r) -> Format.asprintf "%d:%a" c Wire.pp_req r) ops)

let replica_model_prop =
  QCheck.Test.make ~count:300 ~name:"flat replica matches the Hashtbl/Iset model"
    (QCheck.make ~print:print_ops
       QCheck.Gen.(list_size (int_range 1 300) replica_op_gen))
    (fun ops ->
      let same (a : Replica.state) (b : Ref_replica.state) =
        a.Replica.s_current = b.Ref_replica.s_current
        && a.Replica.s_vector = b.Ref_replica.s_vector
      in
      let r = Replica.create () and m = Ref_replica.create () in
      List.for_all
        (fun (client, req) ->
          Replica.handle r ~client req = Ref_replica.handle m ~client req
          && Replica.current r = Ref_replica.current m)
        ops
      && same (Replica.save r) (Ref_replica.save m)
      &&
      let r = Replica.load (Replica.save r)
      and m = Ref_replica.load (Ref_replica.save m) in
      same (Replica.save r) (Ref_replica.save m)
      && Replica.handle r ~client:41 (Wire.Query [])
         = Ref_replica.handle m ~client:41 (Wire.Query [])
      && same (Replica.save r) (Ref_replica.save m))

(* Ints at the varint edges: 0, ±1, one- and two-byte boundaries, and
   the ends of the int range. *)
let edge_int =
  QCheck.Gen.oneofl [ 0; 1; -1; 63; 64; -64; -65; 8191; 8192; max_int; min_int ]

let extreme_value_gen =
  let open QCheck.Gen in
  let wide = frequency [ (3, int_range (-3) 60); (1, edge_int) ] in
  map3 (fun ts wid payload -> value ts wid payload) wide
    (frequency [ (3, int_range (-1) 2); (1, edge_int) ])
    wide

let extreme_op_gen =
  let open QCheck.Gen in
  let client = frequency [ (4, int_range 0 40); (1, edge_int) ] in
  frequency
    [
      (3, map2 (fun c v -> (c, Wire.Update v)) client extreme_value_gen);
      ( 2,
        map2
          (fun c vq -> (c, Wire.Query vq))
          client
          (list_size (int_range 0 4) extreme_value_gen) );
    ]

let refreeze r = Replica.thaw (Replica.freeze r)

let freeze_stream_prop =
  (* A replica frozen and thawed after every op answers every request
     as the one never frozen, and holds the same state throughout. *)
  QCheck.Test.make ~count:300 ~name:"thaw (freeze r) behaves as r"
    (QCheck.make ~print:print_ops
       QCheck.Gen.(list_size (int_range 1 200) extreme_op_gen))
    (fun ops ->
      let r = Replica.create () and f = ref (refreeze (Replica.create ())) in
      List.for_all
        (fun (client, req) ->
          let ok =
            Replica.handle r ~client req = Replica.handle !f ~client req
          in
          f := refreeze !f;
          ok && Replica.save !f = Replica.save r)
        ops)

let freeze_state_prop =
  (* Full windows with 0–40 ids per [updated] set and values at the int
     range's ends: [save] and the bytes themselves survive the round
     trip. *)
  let state_gen =
    let open QCheck.Gen in
    let id = frequency [ (4, int_range 0 60); (1, edge_int) ] in
    let entry = pair extreme_value_gen (list_size (int_range 0 40) id) in
    let width =
      frequency
        [ (1, return Replica.max_vector); (2, int_range 0 Replica.max_vector) ]
    in
    map2
      (fun current vector -> { Replica.s_current = current; s_vector = vector })
      extreme_value_gen (list_size width entry)
  in
  QCheck.Test.make ~count:300 ~name:"save (thaw (freeze r)) = save r"
    (QCheck.make state_gen)
    (fun st ->
      let r = Replica.load st in
      let b = Replica.freeze r in
      Replica.save (Replica.thaw b) = Replica.save r
      && Replica.freeze (Replica.thaw b) = b)

let test_freeze_extremes () =
  (* The widest ints take 9 bytes each and still come back exact. *)
  let r = Replica.create () in
  List.iter
    (fun (client, v) -> ignore (Replica.handle r ~client (Wire.Update v)))
    [
      (max_int, value max_int max_int max_int);
      (min_int, value min_int (-1) min_int);
      (0, value max_int (-1) 0);
    ];
  ignore (Replica.handle r ~client:7 (Wire.Query []));
  check bool "state survives" true (Replica.save (refreeze r) = Replica.save r);
  check bool "current is the max_int tag" true
    (Replica.current (refreeze r) = value max_int max_int max_int);
  check bool "small replica, few bytes" true
    (String.length (Replica.freeze (Replica.create ())) <= 8)

(* Build a READACK reply carrying [vector] entries (value, updated). *)
let ack server entries =
  let current =
    List.fold_left
      (fun acc (v, _) -> Wire.value_max acc v)
      Wire.initial_value_entry entries
  in
  (server, Wire.Read_ack { current; vector = entries })

let test_bound_queue () =
  let n = Client_core.max_queue + 9 in
  let vs = List.init n (fun i -> value (i + 1) 0 i) in
  (* Two servers report overlapping halves, so some values arrive twice. *)
  let replies =
    [
      ack 0 (List.filteri (fun i _ -> i < (2 * n / 3)) vs |> List.map (fun v -> (v, [])));
      ack 1 (List.filteri (fun i _ -> i >= n / 3) vs |> List.map (fun v -> (v, [])));
    ]
  in
  let val_queue = ref [ Wire.initial_value_entry ] in
  let descending l =
    List.for_all2
      (fun (a : Wire.value) b -> Wire.compare_value a b > 0)
      (List.filteri (fun i _ -> i < List.length l - 1) l)
      (List.tl l)
  in
  let seen = Client_core.merge_queue val_queue replies in
  check int "every distinct value seen" n (List.length seen);
  check bool "seen descending" true (descending seen);
  let q = !val_queue in
  check int "queue capped" Client_core.max_queue (List.length q);
  (match q with
  | hd :: _ ->
    check bool "largest first" true (Tstamp.equal hd.Wire.tag (tag n 0))
  | [] -> Alcotest.fail "empty queue");
  check bool "descending" true (descending q);
  ignore (Client_core.merge_queue val_queue replies);
  check bool "a second merge adds no duplicate" true (!val_queue = q)

(* ------------------------------------------------------------------ *)
(* The admissible predicate                                             *)
(* ------------------------------------------------------------------ *)

let v1 = value 1 0 101

let test_admissible_degree1 () =
  (* All S−t = 4 replies carry v1 with a common updater: degree 1. *)
  let replies = List.init 4 (fun s -> ack s [ (v1, [ 10 ]) ]) in
  check bool "admissible a=1" true
    (Client_core.admissible ~s:5 ~t:1 ~value:v1 ~replies ~degree:1)

let test_admissible_needs_enough_messages () =
  let replies = [ ack 0 [ (v1, [ 10 ]) ]; ack 1 []; ack 2 []; ack 3 [] ] in
  check bool "one message is not S-t" false
    (Client_core.admissible ~s:5 ~t:1 ~value:v1 ~replies ~degree:1)

let test_admissible_needs_common_updaters () =
  (* Four messages with v1 but disjoint updated sets: no client is
     common to any large-enough subset, at any degree. *)
  let replies = List.init 4 (fun s -> ack s [ (v1, [ 10 + s ]) ]) in
  check bool "no common client at degree 1" false
    (Client_core.admissible ~s:5 ~t:1 ~value:v1 ~replies ~degree:1);
  check bool "no common pair at degree 2" false
    (Client_core.admissible ~s:5 ~t:1 ~value:v1 ~replies ~degree:2);
  (* Adding one shared client fixes degree 1. *)
  let shared = List.init 4 (fun s -> ack s [ (v1, [ 10 + s; 99 ]) ]) in
  check bool "shared client admissible" true
    (Client_core.admissible ~s:5 ~t:1 ~value:v1 ~replies:shared ~degree:1)

let test_admissible_subset_choice () =
  (* Degree 2 allows dropping t messages: 3 of 4 messages share {10,11}. *)
  let replies =
    [
      ack 0 [ (v1, [ 10; 11 ]) ];
      ack 1 [ (v1, [ 10; 11 ]) ];
      ack 2 [ (v1, [ 10; 11 ]) ];
      ack 3 [ (v1, [ 12 ]) ];
    ]
  in
  check bool "subset with shared pair" true
    (Client_core.admissible ~s:5 ~t:1 ~value:v1 ~replies ~degree:2)

let test_admissible_degenerate_regime () =
  (* S − a·t <= 0: vacuously admissible — the unsafe-regime behaviour the
     threshold experiment relies on. *)
  check bool "degenerate true" true
    (Client_core.admissible ~s:4 ~t:2 ~value:v1 ~replies:[] ~degree:2)

let test_admissible_exact_threshold () =
  (* S=4, t=1: degree 3 needs only 1 message but 3 common updaters. *)
  let replies = [ ack 0 [ (v1, [ 10; 11; 12 ]) ] ] in
  check bool "one block server, 3 updaters, degree 3" true
    (Client_core.admissible ~s:4 ~t:1 ~value:v1 ~replies ~degree:3);
  let replies' = [ ack 0 [ (v1, [ 10; 11 ]) ] ] in
  check bool "only 2 updaters fails" false
    (Client_core.admissible ~s:4 ~t:1 ~value:v1 ~replies:replies' ~degree:3)

(* ------------------------------------------------------------------ *)
(* Protocol runs                                                        *)
(* ------------------------------------------------------------------ *)

let mixed_plans =
  [
    Runtime.write_plan ~writer:0 ~think:15.0 4;
    Runtime.write_plan ~writer:1 ~start_at:4.0 ~think:21.0 4;
    Runtime.read_plan ~reader:0 ~start_at:1.0 ~think:9.0 8;
    Runtime.read_plan ~reader:1 ~start_at:2.0 ~think:13.0 8;
  ]

let run_register ?(s = 5) ?(t = 1) ?(w = 2) ?(r = 2) ?(seed = 1) ?adversary
    ?(plans = mixed_plans) register =
  let env =
    Env.make ~seed ~latency:(Simulation.Latency.uniform ~lo:1.0 ~hi:8.0) ~s ~t
      ~w ~r ()
  in
  Runtime.run ~register ~env ~plans ?adversary ()

let assert_atomic_run name out =
  let h = out.Runtime.history in
  check bool (name ^ ": well-formed") true (Histories.History.well_formed h = Ok ());
  check bool (name ^ ": wait-free") true
    (List.for_all Histories.Op.is_complete (Histories.History.ops h));
  (match Checker.Atomicity.check h with
  | Ok () -> ()
  | Error w -> Alcotest.failf "%s: atomicity violated: %s" name (Checker.Witness.to_string w));
  match Checker.Mw_properties.check_ok out.Runtime.tagged with
  | Ok () -> ()
  | Error w -> Alcotest.failf "%s: MWA violated: %s" name (Checker.Witness.to_string w)

let test_abd_mwmr_atomic () =
  for seed = 1 to 10 do
    assert_atomic_run "LS97" (run_register ~seed Registry.abd_mwmr)
  done

let test_fastread_atomic_safe_regime () =
  (* S=5, t=1, R=2 < S/t − 2 = 3: proven-correct regime. *)
  for seed = 1 to 10 do
    assert_atomic_run "W2R1" (run_register ~seed Registry.fastread_w2r1)
  done

let test_abd_swmr_atomic () =
  let plans =
    [
      Runtime.write_plan ~writer:0 ~think:10.0 6;
      Runtime.read_plan ~reader:0 ~start_at:1.0 ~think:7.0 8;
      Runtime.read_plan ~reader:1 ~start_at:2.0 ~think:11.0 8;
    ]
  in
  for seed = 1 to 10 do
    assert_atomic_run "ABD-SW" (run_register ~seed ~w:1 ~plans Registry.abd_swmr)
  done

let test_dglv_atomic_safe_regime () =
  let plans =
    [
      Runtime.write_plan ~writer:0 ~think:10.0 6;
      Runtime.read_plan ~reader:0 ~start_at:1.0 ~think:7.0 8;
      Runtime.read_plan ~reader:1 ~start_at:2.0 ~think:11.0 8;
    ]
  in
  (* S=6, t=1, R=2 < 4: DGLV's safe regime. *)
  for seed = 1 to 10 do
    assert_atomic_run "DGLV" (run_register ~seed ~s:6 ~w:1 ~plans Registry.dglv_w1r1)
  done

let test_single_writer_protocols_reject_multi () =
  List.iter
    (fun r ->
      let prefix = Registry.name r in
      check bool (prefix ^ " rejects, naming itself") true
        (try ignore (run_register ~w:2 r); false
         with Invalid_argument msg -> String.starts_with ~prefix msg))
    Registry.[ abd_swmr; dglv_w1r1 ]

(* The deterministic writer-inversion schedule: the higher-id writer
   writes first; a naive fast write gives the later write a smaller
   timestamp, and the read then returns stale data. *)
let inversion_plans =
  [
    Runtime.write_plan ~writer:1 ~start_at:0.0 1;
    Runtime.write_plan ~writer:0 ~start_at:100.0 1;
    Runtime.read_plan ~reader:0 ~start_at:200.0 1;
  ]

let test_naive_w1r2_violates () =
  let out = run_register ~plans:inversion_plans Registry.naive_w1r2 in
  check bool "naive fast write not atomic" false
    (Checker.Atomicity.is_atomic out.Runtime.history);
  (match Checker.Atomicity.check out.Runtime.history with
  | Error w -> check Alcotest.string "stale read" "stale-read" (Checker.Witness.short w)
  | Ok () -> Alcotest.fail "expected violation");
  let report = Checker.Mw_properties.check out.Runtime.tagged in
  check bool "MWA0 violated too" true (report.Checker.Mw_properties.mwa0 <> None)

let test_naive_w1r1_violates () =
  let out = run_register ~plans:inversion_plans Registry.naive_w1r1 in
  check bool "naive W1R1 not atomic" false
    (Checker.Atomicity.is_atomic out.Runtime.history)

let test_slow_protocols_survive_inversion_schedule () =
  assert_atomic_run "LS97 inversion"
    (run_register ~plans:inversion_plans Registry.abd_mwmr);
  assert_atomic_run "W2R1 inversion"
    (run_register ~plans:inversion_plans Registry.fastread_w2r1)

let test_atomic_under_crash () =
  let adversary ctl engine =
    Simulation.Engine.schedule_at engine ~time:30.0 (fun () ->
        ctl.Control.crash_server 2)
  in
  for seed = 1 to 5 do
    assert_atomic_run "LS97 + crash"
      (run_register ~seed ~adversary Registry.abd_mwmr);
    assert_atomic_run "W2R1 + crash"
      (run_register ~seed ~adversary Registry.fastread_w2r1)
  done

let test_registry () =
  check int "eight protocols" 8 (List.length Registry.all);
  check int "four multi-writer" 4 (List.length Registry.multi_writer);
  check bool "find by substring" true
    (match Registry.find "ls97" with
    | Some r -> Registry.name r = Registry.name Registry.abd_mwmr
    | None -> false);
  check bool "find missing" true (Registry.find "zzz-nothing" = None);
  (* Each protocol is declared once: every registered handle resolves
     to its row by identity, and a handle built elsewhere is refused
     even under a registered protocol's name and client algorithm. *)
  List.iter
    (fun r ->
      let dp = Registry.design_point r in
      check bool (Registry.name r ^ " has a design point") true
        (List.mem dp Quorums.Bounds.all_design_points);
      ignore (Registry.client_algo r : Client_core.algo);
      check (Alcotest.option int) (Registry.name r ^ " writer bound")
        (if List.memq r Registry.[ abd_swmr; dglv_w1r1 ] then Some 1 else None)
        (Registry.max_writers r))
    Registry.all;
  check (Alcotest.pair int int) "clamp" (1, 3)
    Registry.(clamp_writers abd_swmr 3, clamp_writers abd_mwmr 3);
  let impostor = Abd_mwmr.(Cluster_base.register ~name ~design_point algo) in
  check bool "same name" true (Registry.name impostor = Abd_mwmr.name);
  let refused f = try ignore (f impostor); false with Invalid_argument _ -> true in
  check bool "client_algo refuses it" true (refused Registry.client_algo);
  check bool "max_writers refuses it" true (refused Registry.max_writers)

let test_design_points () =
  check bool "abd_mwmr W2R2" true
    (Registry.design_point Registry.abd_mwmr = Quorums.Bounds.W2R2);
  check bool "fastread W2R1" true
    (Registry.design_point Registry.fastread_w2r1 = Quorums.Bounds.W2R1);
  check bool "naive_w1r2 W1R2" true
    (Registry.design_point Registry.naive_w1r2 = Quorums.Bounds.W1R2);
  check bool "dglv W1R1" true
    (Registry.design_point Registry.dglv_w1r1 = Quorums.Bounds.W1R1)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "registers"
    [
      ("tstamp", [ tc "lexicographic order" test_tstamp_order ]);
      ( "replica",
        [
          tc "update monotone" test_replica_update_monotone;
          tc "updated sets" test_replica_updated_sets;
          tc "query folds queue" test_replica_query_folds_queue;
          tc "enrolls reader in current" test_replica_enrolls_reader_in_current;
          tc "initial state" test_replica_initial_state;
          tc "vector pruned to window" test_replica_vector_pruned;
          tc "wire updated sets truncated" test_replica_wire_updated_truncated;
          QCheck_alcotest.to_alcotest replica_model_prop;
          QCheck_alcotest.to_alcotest freeze_stream_prop;
          QCheck_alcotest.to_alcotest freeze_state_prop;
          tc "freeze at the int extremes" test_freeze_extremes;
          tc "valQueue bounded" test_bound_queue;
        ] );
      ( "admissible",
        [
          tc "degree 1" test_admissible_degree1;
          tc "needs messages" test_admissible_needs_enough_messages;
          tc "needs common updaters" test_admissible_needs_common_updaters;
          tc "subset choice" test_admissible_subset_choice;
          tc "degenerate regime" test_admissible_degenerate_regime;
          tc "exact threshold" test_admissible_exact_threshold;
        ] );
      ( "protocols",
        [
          tc "LS97 atomic" test_abd_mwmr_atomic;
          tc "W2R1 atomic in safe regime" test_fastread_atomic_safe_regime;
          tc "ABD-SW atomic" test_abd_swmr_atomic;
          tc "DGLV atomic in safe regime" test_dglv_atomic_safe_regime;
          tc "single-writer guards" test_single_writer_protocols_reject_multi;
          tc "naive W1R2 violates" test_naive_w1r2_violates;
          tc "naive W1R1 violates" test_naive_w1r1_violates;
          tc "slow protocols survive inversion" test_slow_protocols_survive_inversion_schedule;
          tc "atomic under crash" test_atomic_under_crash;
          tc "registry" test_registry;
          tc "design points" test_design_points;
        ] );
    ]
