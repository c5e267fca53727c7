(* The sharded KV keyspace: placement ring properties, keyspace
   eviction, the keyed reactor path, mux demux hardening, and the
   YCSB driver end-to-end over the mux plane. *)

open Kv
open Registers
open Transport
module Ycsb = Workload.Ycsb
module Rng = Simulation.Rng

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let tag ts wid = { Tstamp.ts; wid }

(* A deterministic key population: ranks through the YCSB namer, so the
   balance and remap numbers below are exact, not statistical. *)
let population n = List.init n Ycsb.key_name

(* ------------------------------------------------------------------ *)
(* Placement                                                            *)
(* ------------------------------------------------------------------ *)

let test_placement_balance () =
  (* 128 vnodes/group keep every group within a small factor of the
     mean, and no group ever starves.  Deterministic: the ring depends
     only on (groups, vnodes) and the population only on its size. *)
  let keys = population 2000 in
  List.iter
    (fun groups ->
      let p = Placement.make ~groups in
      let counts = Placement.spread p keys in
      check int "one bucket per group" groups (Array.length counts);
      check int "every key placed" 2000 (Array.fold_left ( + ) 0 counts);
      let mean = 2000. /. float_of_int groups in
      Array.iteri
        (fun g c ->
          if c = 0 then
            Alcotest.failf "group %d/%d owns no keys" g groups;
          if float_of_int c > 3.0 *. mean then
            Alcotest.failf "group %d/%d owns %d keys (mean %.0f)" g groups c
              mean)
        counts)
    [ 1; 2; 3; 4; 5; 8 ]

let test_placement_remap_only_to_new_group () =
  (* The consistent-hashing contract, exactly: growing the ring from N
     to N+1 groups moves a key only if the NEW group takes it.  No key
     ever moves between two old groups. *)
  let keys = population 2000 in
  List.iter
    (fun groups ->
      let old_ring = Placement.make ~groups in
      let new_ring = Placement.make ~groups:(groups + 1) in
      let moved = ref 0 in
      List.iter
        (fun key ->
          let o = Placement.group_of old_ring key in
          let n = Placement.group_of new_ring key in
          if n <> o then begin
            incr moved;
            check int (key ^ " moved to the added group only") groups n
          end)
        keys;
      (* ~K/(N+1) keys move; allow a generous constant over the ideal
         share, still far below any rehash-everything behaviour. *)
      let ideal = 2000. /. float_of_int (groups + 1) in
      if float_of_int !moved > 2.5 *. ideal then
        Alcotest.failf "%d->%d groups moved %d keys (ideal %.0f)" groups
          (groups + 1) !moved ideal)
    [ 1; 2; 3; 4; 7 ]

let prop_remap_arbitrary_keys =
  QCheck.Test.make ~count:500 ~name:"placement: remap only to the new group"
    QCheck.(pair (int_range 1 7) (string_of_size (Gen.int_bound 64)))
    (fun (groups, key) ->
      let o = Placement.group_of (Placement.make ~groups) key in
      let n = Placement.group_of (Placement.make ~groups:(groups + 1)) key in
      n = o || n = groups)

let prop_group_in_range =
  QCheck.Test.make ~count:500 ~name:"placement: owner always in range"
    QCheck.(pair (int_range 1 9) (string_of_size (Gen.int_bound 64)))
    (fun (groups, key) ->
      let g = Placement.group_of (Placement.make ~groups) key in
      0 <= g && g < groups)

(* ------------------------------------------------------------------ *)
(* Keyspace                                                             *)
(* ------------------------------------------------------------------ *)

let test_keyspace_eviction_loss_free () =
  (* Far more keys than max_hot: every value written before a demotion
     must still read back after it — eviction parks state, never drops
     it. *)
  let ks = Keyspace.create ~max_hot:8 () in
  let nkeys = 100 in
  for i = 0 to nkeys - 1 do
    let rep =
      Keyspace.handle ks ~key:(Ycsb.key_name i) ~client:7
        (Wire.Update { tag = tag 1 0; payload = 1000 + i })
    in
    match rep with
    | Wire.Write_ack _ -> ()
    | Wire.Read_ack _ -> Alcotest.fail "update answered with a read ack"
  done;
  check int "all keys tracked" nkeys (Keyspace.key_count ks);
  if Keyspace.hot_count ks > 8 then
    Alcotest.failf "hot set %d exceeds max_hot 8" (Keyspace.hot_count ks);
  for i = nkeys - 1 downto 0 do
    match
      Keyspace.handle ks ~key:(Ycsb.key_name i) ~client:8 (Wire.Query [])
    with
    | Wire.Read_ack { current; _ } ->
      check int (Ycsb.key_name i ^ " survives demotion") (1000 + i)
        current.Wire.payload
    | Wire.Write_ack _ -> Alcotest.fail "query answered with a write ack"
  done

let test_keyspace_isolation () =
  (* Writes land on their own key only; an untouched key still serves
     the initial value. *)
  let ks = Keyspace.create () in
  ignore (Keyspace.handle ks ~key:"a" ~client:1
            (Wire.Update { tag = tag 3 1; payload = 111 }));
  ignore (Keyspace.handle ks ~key:"b" ~client:2
            (Wire.Update { tag = tag 2 2; payload = 222 }));
  let read key client =
    match Keyspace.handle ks ~key ~client (Wire.Query []) with
    | Wire.Read_ack { current; _ } -> current.Wire.payload
    | Wire.Write_ack _ -> Alcotest.fail "query answered with a write ack"
  in
  check int "a reads its own write" 111 (read "a" 3);
  check int "b reads its own write" 222 (read "b" 4);
  check int "c untouched" Wire.initial_value_entry.Wire.payload (read "c" 5)

let test_keyspace_save_load () =
  let ks = Keyspace.create ~max_hot:4 () in
  for i = 0 to 19 do
    ignore (Keyspace.handle ks ~key:(Ycsb.key_name i) ~client:1
              (Wire.Update { tag = tag 1 1; payload = 500 + i }))
  done;
  let reloaded = Keyspace.load (Keyspace.save ks) in
  check int "key count preserved" 20 (Keyspace.key_count reloaded);
  check int "all keys parked cold" 0 (Keyspace.hot_count reloaded);
  for i = 0 to 19 do
    match
      Keyspace.handle reloaded ~key:(Ycsb.key_name i) ~client:2
        (Wire.Query [])
    with
    | Wire.Read_ack { current; _ } ->
      check int "value survives the snapshot" (500 + i) current.Wire.payload
    | Wire.Write_ack _ -> Alcotest.fail "query answered with a write ack"
  done

(* ------------------------------------------------------------------ *)
(* YCSB generator                                                       *)
(* ------------------------------------------------------------------ *)

let test_ycsb_deterministic () =
  let draw () =
    let y = Ycsb.create ~dist:(Ycsb.Zipfian Ycsb.default_theta) ~keys:500 in
    let rng = Rng.create ~seed:99 in
    List.init 200 (fun _ ->
        (Ycsb.next_key y rng,
         match Ycsb.next_op Ycsb.A rng with `Read -> 0 | `Write -> 1))
  in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "same seed, same sequence" (draw ()) (draw ())

let test_ycsb_bounds_and_skew () =
  let n = 10_000 and keys = 1000 in
  let count dist =
    let y = Ycsb.create ~dist ~keys in
    let rng = Rng.create ~seed:7 in
    let zero = ref 0 in
    for _ = 1 to n do
      let k = Ycsb.next_key y rng in
      if k < 0 || k >= keys then Alcotest.failf "rank %d out of range" k;
      if k = 0 then incr zero
    done;
    !zero
  in
  let zipf = count (Ycsb.Zipfian Ycsb.default_theta) in
  let unif = count Ycsb.Uniform in
  (* Rank 0 draws ~1/zeta(K,theta) of zipfian traffic (hundreds of
     draws here) but only ~n/K of uniform traffic (~10). *)
  if zipf < 500 then Alcotest.failf "zipfian head too cold: %d" zipf;
  if unif > 100 then Alcotest.failf "uniform head too hot: %d" unif

let test_ycsb_mixes () =
  let writes mix =
    let rng = Rng.create ~seed:11 in
    let w = ref 0 in
    for _ = 1 to 1000 do
      match Ycsb.next_op mix rng with `Write -> incr w | `Read -> ()
    done;
    !w
  in
  check int "mix C never writes" 0 (writes Ycsb.C);
  let b = writes Ycsb.B in
  if b = 0 || b > 150 then Alcotest.failf "mix B writes off: %d/1000" b;
  let a = writes Ycsb.A in
  if a < 350 || a > 650 then Alcotest.failf "mix A writes off: %d/1000" a

(* ------------------------------------------------------------------ *)
(* The keyed reactor path                                               *)
(* ------------------------------------------------------------------ *)

let raw_send fd s =
  let b = Bytes.of_string s in
  Netio.write_all fd b 0 (Bytes.length b)

let raw_read_frames fd st buf want =
  let got = ref [] and n_got = ref 0 in
  while !n_got < want do
    let n = Netio.read fd buf 0 (Bytes.length buf) in
    if n = 0 then failwith "server closed a healthy connection";
    Codec.Stream.feed st buf n;
    let rec drain () =
      match Codec.Stream.next st with
      | Some f ->
        got := f :: !got;
        incr n_got;
        drain ()
      | None -> ()
    in
    drain ()
  done;
  List.rev !got

let test_reactor_interleaved_keyed_frames () =
  (* One connection carrying frames for several keys interleaved —
     dripped in small chunks so the reactor holds partial frames — must
     answer every frame in order, echoing each request's key, with
     per-key server state fully isolated. *)
  let server = Server.start ~id:0 () in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let client = 42 in
  let frames =
    [
      Codec.Keyed_request
        { key = "a"; rt = 0; client;
          req = Wire.Update { tag = tag 1 client; payload = 111 } };
      Codec.Keyed_request
        { key = "b"; rt = 1; client;
          req = Wire.Update { tag = tag 1 client; payload = 222 } };
      Codec.Keyed_request { key = "c"; rt = 2; client; req = Wire.Query [] };
      Codec.Keyed_request { key = "a"; rt = 3; client; req = Wire.Query [] };
      Codec.Keyed_request { key = "b"; rt = 4; client; req = Wire.Query [] };
    ]
  in
  let wire = String.concat "" (List.map Codec.encode frames) in
  (* Drip the stream 7 bytes at a time: every keyed frame crosses a
     chunk boundary somewhere. *)
  let pos = ref 0 in
  while !pos < String.length wire do
    let n = min 7 (String.length wire - !pos) in
    raw_send fd (String.sub wire !pos n);
    pos := !pos + n
  done;
  let got =
    raw_read_frames fd (Codec.Stream.create ()) (Bytes.create 4096) 5
  in
  let payload_of = function
    | Wire.Read_ack { current; _ } -> current.Wire.payload
    | Wire.Write_ack _ -> Alcotest.fail "expected a read ack"
  in
  (match[@warning "-4"] got with
  | [
   Codec.Keyed_reply { key = "a"; rt = 0; client = 42; server = 0; rep = Wire.Write_ack _ };
   Codec.Keyed_reply { key = "b"; rt = 1; client = 42; server = 0; rep = Wire.Write_ack _ };
   Codec.Keyed_reply { key = "c"; rt = 2; client = 42; server = 0; rep = rc };
   Codec.Keyed_reply { key = "a"; rt = 3; client = 42; server = 0; rep = ra };
   Codec.Keyed_reply { key = "b"; rt = 4; client = 42; server = 0; rep = rb };
  ] ->
    (* Key c never saw a write; each written key sees its own. *)
    check int "unwritten key c untouched"
      Wire.initial_value_entry.Wire.payload (payload_of rc);
    check int "key a isolated" 111 (payload_of ra);
    check int "key b isolated" 222 (payload_of rb)
  | _ -> Alcotest.fail "replies out of order, or keys not echoed");
  check int "server keyspace tracked every key" 3
    (Keyspace.key_count (Server.keyspace server))

(* ------------------------------------------------------------------ *)
(* Mux demux hardening                                                  *)
(* ------------------------------------------------------------------ *)

let test_mux_drops_unknown_client_and_stale_key () =
  (* A misbehaving server answers a keyed round trip with: a reply for a
     client that does not exist, a reply for the right (client, rt) but
     the wrong key, and only then the real reply.  The plane must drop
     the first two into the stats counter and complete the round on the
     third — no wedge, no misroute. *)
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 1;
  let addr = Unix.getsockname listener in
  let server =
    Thread.create
      (fun () ->
        let fd =
          (* blocking listener: accept_nb parks until the client dials
             in, retrying EINTR behind Netio's choke point *)
          match Netio.accept_nb listener with
          | Some fd -> fd
          | None -> failwith "accept returned without a connection"
        in
        let st = Codec.Stream.create () in
        let buf = Bytes.create 4096 in
        let rec next_frame () =
          match Codec.Stream.next st with
          | Some f -> f
          | None ->
            let n = Netio.read fd buf 0 (Bytes.length buf) in
            if n = 0 then failwith "client closed early";
            Codec.Stream.feed st buf n;
            next_frame ()
        in
        let reply ~key ~rt ~client =
          Codec.Keyed_reply
            { key; rt; client; server = 0;
              rep = Wire.Write_ack { current = Wire.initial_value_entry } }
        in
        (match next_frame () with
        | Codec.Keyed_request { key; rt; client; _ } ->
          raw_send fd (Codec.encode (reply ~key ~rt ~client:9999));
          raw_send fd (Codec.encode (reply ~key:(key ^ "-stale") ~rt ~client));
          raw_send fd (Codec.encode (reply ~key ~rt ~client))
        | Codec.Keyed_reply _ -> failwith "expected a request");
        (* Second round: answer straight, to prove the plane did not
           wedge. *)
        (match next_frame () with
        | Codec.Keyed_request { key; rt; client; _ } ->
          raw_send fd (Codec.encode (reply ~key ~rt ~client))
        | Codec.Keyed_reply _ -> failwith "expected a request");
        Unix.close fd)
      ()
  in
  let mux = Mux.create ~servers:[| addr |] ~quorum:1 () in
  Fun.protect ~finally:(fun () -> Mux.shutdown mux; Thread.join server;
                         Unix.close listener)
  @@ fun () ->
  let h = Mux.client mux ~client:5 in
  let round key =
    let n = ref 0 in
    Mux.exec ~key h (Wire.Update { tag = tag 1 5; payload = 1 })
      (fun replies -> n := List.length replies);
    !n
  in
  check int "round completes past the junk replies" 1 (round "k1");
  check int "junk replies counted, not delivered" 2 (Mux.dropped_replies mux);
  check int "plane not wedged for the next key" 1 (round "k2");
  check int "no further drops" 2 (Mux.dropped_replies mux)

(* ------------------------------------------------------------------ *)
(* End-to-end: the YCSB driver over a sharded deployment                *)
(* ------------------------------------------------------------------ *)

let test_session_mux () =
  let cluster = Kv_cluster.start ~groups:2 ~s:3 ~tol:1 () in
  Fun.protect ~finally:(fun () -> Kv_cluster.shutdown cluster) @@ fun () ->
  let res =
    Kv_session.run ~cluster
      {
        Kv_session.roles = Kv_session.Mixed 4;
        ops_per_client = 15;
        keys = 40;
        dist = Ycsb.Zipfian Ycsb.default_theta;
        mix = Ycsb.A;
        seed = 21;
        sample_keys = 4;
        think = 0.0;
      }
  in
  check int "no client starved" 0 res.Kv_session.starved;
  check int "every op completed" 60 res.Kv_session.ops;
  check int "every op routed to a group" 60
    (Array.fold_left ( + ) 0 res.Kv_session.group_ops);
  check int "sampled the four hottest ranks" 4
    (List.length res.Kv_session.verdicts);
  List.iter
    (fun v ->
      if not v.Kv_session.atomic then
        Alcotest.failf "key %s not atomic" v.Kv_session.vkey)
    res.Kv_session.verdicts;
  if res.Kv_session.keys_touched < 1 then Alcotest.fail "no keys touched"

let test_session_mixed_rounds () =
  (* Mixed clients over two groups: every completed abd_mwmr op is two
     round trips, whichever group its key lives in — the Table-1
     column the single-register rows report. *)
  let cluster = Kv_cluster.start ~groups:2 ~s:3 ~tol:1 () in
  Fun.protect ~finally:(fun () -> Kv_cluster.shutdown cluster) @@ fun () ->
  let res =
    Kv_session.run ~cluster
      { Kv_session.default_spec with ops_per_client = 15; keys = 40 }
  in
  check int "no client starved" 0 res.Kv_session.starved;
  check bool "writes take two rounds" true (res.Kv_session.write_rounds = 2.0);
  check bool "reads take two rounds" true (res.Kv_session.read_rounds = 2.0)

let test_connect_split_roles () =
  (* An attached cluster (the [mwreg live --connect] path): split roles
     over the addresses of a running deployment's servers. *)
  let kc = Kv_cluster.start ~groups:1 ~s:5 ~tol:1 () in
  Fun.protect ~finally:(fun () -> Kv_cluster.shutdown kc) @@ fun () ->
  let remote =
    Kv_cluster.connect ~addrs:(Cluster.addrs (Kv_cluster.group kc 0)) ~tol:1
  in
  let res =
    Kv_session.run ~register:Registry.fastread_w2r1 ~cluster:remote
      (Kv_session.register_spec ~writers:2 ~readers:2 10)
  in
  check bool "attached group is remote" false
    (Cluster.local (Kv_cluster.group remote 0));
  check int "no client starved" 0 res.Kv_session.starved;
  check int "every op completed" 60 res.Kv_session.ops;
  check bool "history atomic" true
    (Checker.Atomicity.is_atomic (Kv_session.history res));
  check bool "reads are one round" true (res.Kv_session.read_rounds = 1.0)

let test_session_live_check () =
  (* Live checking covers every key the workload touches — not just
     the sampled ranks — with one streaming instance per key under a
     shared watermark, and its verdicts must agree with the sampled
     batch verdicts. *)
  let cluster = Kv_cluster.start ~groups:2 ~s:3 ~tol:1 () in
  Fun.protect ~finally:(fun () -> Kv_cluster.shutdown cluster) @@ fun () ->
  let res =
    Kv_session.run ~live_check:true ~cluster
      {
        Kv_session.roles = Kv_session.Mixed 4;
        ops_per_client = 15;
        keys = 40;
        dist = Ycsb.Zipfian Ycsb.default_theta;
        mix = Ycsb.A;
        seed = 21;
        sample_keys = 4;
        think = 0.0;
      }
  in
  check int "every op completed" 60 res.Kv_session.ops;
  match res.Kv_session.online with
  | None -> Alcotest.fail "live_check:true returned no online report"
  | Some r ->
    check bool "online atomic" true (Transport.Check_sink.atomic r);
    check int "every completed op checked" 60 r.Transport.Check_sink.checked;
    check int "all touched keys checked" res.Kv_session.keys_touched
      r.Transport.Check_sink.keys;
    check bool "window bounded" true
      (r.Transport.Check_sink.peak_window <= 60);
    List.iter
      (fun v ->
        if not v.Kv_session.atomic then
          Alcotest.failf "batch disagrees on key %s" v.Kv_session.vkey)
      res.Kv_session.verdicts

let test_session_rejects_bounded_writers () =
  let cluster = Kv_cluster.start ~groups:1 ~s:3 ~tol:1 () in
  Fun.protect ~finally:(fun () -> Kv_cluster.shutdown cluster) @@ fun () ->
  Alcotest.check_raises "single-writer protocol at W=2"
    (Invalid_argument
       "Kv_session.run: ABD'95 SWMR accepts at most 1 writer(s)")
    (fun () ->
      ignore
        (Kv_session.run ~register:Registry.abd_swmr ~cluster
           { Kv_session.default_spec with roles = Kv_session.Mixed 2 }))

let test_recover_restart_preserves_keyspace () =
  (* Two servers, tol 0, so the quorum is both of them: writes reach
     server 0 before acking, and a post-restart read cannot complete
     without server 0's answer.  A recover-restart must rehydrate the
     keyspace snapshot (values per key) — we check server 0's keyspace
     directly and then end-to-end through the full-quorum read. *)
  let kc = Kv_cluster.start ~groups:1 ~s:2 ~tol:0 () in
  Fun.protect ~finally:(fun () -> Kv_cluster.shutdown kc) @@ fun () ->
  let router = Router.create ~clients:1 kc in
  Fun.protect ~finally:(fun () -> Router.shutdown router) @@ fun () ->
  let cl = Router.client router ~index:0 in
  Fun.protect ~finally:(fun () -> Router.close_client cl) @@ fun () ->
  let algo = Registry.client_algo Registry.abd_mwmr in
  let write key payload =
    let w = algo.Client_core.new_writer (Router.key_ctx cl key) ~writer:0 in
    let done_ = ref false in
    w ~payload ~k:(fun _ -> done_ := true);
    check bool (key ^ " write acked") true !done_
  in
  let read key =
    let r = algo.Client_core.new_reader (Router.key_ctx cl key) ~reader:0 in
    let got = ref min_int in
    r ~k:(fun v _ -> got := v);
    !got
  in
  write "alpha" 777;
  write "beta" 888;
  let g = Kv_cluster.group kc 0 in
  Cluster.kill g 0;
  Cluster.restart ~mode:`Recover g 0;
  let ks0 = Cluster.keyspace g 0 in
  let peek key =
    match[@warning "-4"]
      Keyspace.handle ks0 ~key ~client:999 (Wire.Query [])
    with
    | Wire.Read_ack { current; _ } -> current.Wire.payload
    | _ -> Alcotest.fail "expected Read_ack"
  in
  check int "restarted server rehydrated alpha" 777 (peek "alpha");
  check int "restarted server rehydrated beta" 888 (peek "beta");
  check int "alpha survives the recover-restart" 777 (read "alpha");
  check int "beta survives the recover-restart" 888 (read "beta")

(* ------------------------------------------------------------------ *)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_remap_arbitrary_keys; prop_group_in_range ]

let () =
  Alcotest.run "kv"
    [
      ( "placement",
        [
          Alcotest.test_case "balance" `Quick test_placement_balance;
          Alcotest.test_case "remap only to new group" `Quick
            test_placement_remap_only_to_new_group;
        ]
        @ qsuite );
      ( "keyspace",
        [
          Alcotest.test_case "eviction is loss-free" `Quick
            test_keyspace_eviction_loss_free;
          Alcotest.test_case "per-key isolation" `Quick
            test_keyspace_isolation;
          Alcotest.test_case "save/load" `Quick test_keyspace_save_load;
        ] );
      ( "ycsb",
        [
          Alcotest.test_case "deterministic" `Quick test_ycsb_deterministic;
          Alcotest.test_case "bounds and skew" `Quick
            test_ycsb_bounds_and_skew;
          Alcotest.test_case "mixes" `Quick test_ycsb_mixes;
        ] );
      ( "reactor",
        [
          Alcotest.test_case "interleaved keyed frames" `Quick
            test_reactor_interleaved_keyed_frames;
        ] );
      ( "mux",
        [
          Alcotest.test_case "drops unknown client and stale key" `Quick
            test_mux_drops_unknown_client_and_stale_key;
        ] );
      ( "session",
        [
          Alcotest.test_case "mux plane" `Quick test_session_mux;
          Alcotest.test_case "mixed clients report Table-1 rounds" `Quick
            test_session_mixed_rounds;
          Alcotest.test_case "connect runs split roles" `Quick
            test_connect_split_roles;
          Alcotest.test_case "live checker over all keys" `Quick
            test_session_live_check;
          Alcotest.test_case "writer bound rejected" `Quick
            test_session_rejects_bounded_writers;
          Alcotest.test_case "recover restart keeps the keyspace" `Quick
            test_recover_restart_preserves_keyspace;
        ] );
    ]
