(* The sharded KV keyspace: placement ring properties, keyspace
   eviction, the keyed reactor path, mux routing hardening, and the
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

(* The resident set the batch policy leaves: every touched key with its
   last use; past [max_hot], sort by last use and keep the
   [max 1 (3·max_hot/4)] newest. *)
let reference_resident ~max_hot resident tick key =
  let resident = (key, tick) :: List.remove_assoc key resident in
  if List.length resident <= max_hot then resident
  else
    let by_recency = List.sort (fun (_, a) (_, b) -> compare b a) resident in
    List.filteri (fun i _ -> i < max 1 (3 * max_hot / 4)) by_recency

let same_resident ks resident =
  Keyspace.hot_count ks = List.length resident
  && List.for_all (fun (k, _) -> Keyspace.is_hot ks k) resident

let keyspace_model_prop =
  (* Random handle streams over at most 3·max_hot keys: after every op
     the resident set is the policy's, every reply matches a keyspace
     that never demotes, and so does every key's full state. *)
  let gen =
    let open QCheck.Gen in
    oneofl [ 1; 2; 3; 4; 8 ] >>= fun max_hot ->
    let v =
      map2
        (fun ts wid -> { Wire.tag = tag ts wid; payload = (ts * 10) + wid })
        (int_range 0 12) (int_range 0 2)
    in
    let req =
      frequency
        [
          (3, map (fun v -> Wire.Update v) v);
          (2, map (fun vq -> Wire.Query vq) (list_size (int_range 0 2) v));
        ]
    in
    let op = triple (int_range 0 ((3 * max_hot) - 1)) (int_range 0 5) req in
    map (fun ops -> (max_hot, ops)) (list_size (int_range 1 200) op)
  in
  let print (max_hot, ops) =
    Printf.sprintf "max_hot %d: %s" max_hot
      (String.concat "; "
         (List.map
            (fun (k, c, r) -> Format.asprintf "k%d/%d:%a" k c Wire.pp_req r)
            ops))
  in
  QCheck.Test.make ~count:300
    ~name:"keyspace: resident set and states match the reference"
    (QCheck.make ~print gen)
    (fun (max_hot, ops) ->
      let ks = Keyspace.create ~max_hot () in
      let reference = Keyspace.create ~max_hot:max_int () in
      let resident = ref [] in
      List.for_all
        (fun (i, (k, client, req)) ->
          let key = Ycsb.key_name k in
          resident := reference_resident ~max_hot !resident i key;
          Keyspace.handle ks ~key ~client req
          = Keyspace.handle reference ~key ~client req
          && same_resident ks !resident)
        (List.mapi (fun i op -> (i, op)) ops)
      && Keyspace.save ks = Keyspace.save reference)

let test_keyspace_demotion_edges () =
  (* Exactly [max_hot] keys never demote; one more drops the hot set to
     [max 1 (3·max_hot/4)], keeping the most recently used. *)
  List.iter
    (fun max_hot ->
      let ks = Keyspace.create ~max_hot () in
      let touch i =
        ignore
          (Keyspace.handle ks ~key:(Ycsb.key_name i) ~client:1 (Wire.Query []))
      in
      for i = 0 to max_hot - 1 do
        touch i
      done;
      check int (Printf.sprintf "max_hot %d: full, no demotion" max_hot)
        max_hot (Keyspace.hot_count ks);
      (* Re-touch the oldest key: it must survive the pass, not key 1. *)
      touch 0;
      touch max_hot;
      let keep = max 1 (3 * max_hot / 4) in
      check int (Printf.sprintf "max_hot %d: one more drops to keep" max_hot)
        keep (Keyspace.hot_count ks);
      check bool "the newest key stays" true
        (Keyspace.is_hot ks (Ycsb.key_name max_hot));
      if keep > 1 then
        check bool "a re-touched key stays" true
          (Keyspace.is_hot ks (Ycsb.key_name 0));
      check int "nothing lost" (max_hot + 1) (Keyspace.key_count ks))
    [ 1; 2; 3; 4; 8 ]

let test_keyspace_save_load () =
  (* Multi-entry vectors with several certificate ids per entry survive
     demotion, save and load exactly, not just their current values. *)
  let ks = Keyspace.create ~max_hot:2 () in
  let reference = Keyspace.create ~max_hot:max_int () in
  let both key client req =
    ignore (Keyspace.handle ks ~key ~client req);
    ignore (Keyspace.handle reference ~key ~client req)
  in
  for k = 0 to 5 do
    let key = Ycsb.key_name k in
    for ts = 1 to 4 do
      for client = 0 to 2 do
        both key client (Wire.Update { tag = tag ts client; payload = ts })
      done
    done;
    both key 9 (Wire.Query [])
  done;
  let saved = Keyspace.save ks in
  check bool "demotion kept every state" true (saved = Keyspace.save reference);
  let st = List.assoc (Ycsb.key_name 0) saved in
  check bool "multi-entry vector" true (List.length st.Replica.s_vector >= 12);
  check bool "certificate sets kept" true
    (List.for_all (fun (_, u) -> List.mem 9 u) st.Replica.s_vector);
  let reloaded = Keyspace.load ~max_hot:2 saved in
  check int "key count preserved" 6 (Keyspace.key_count reloaded);
  check int "all keys parked cold" 0 (Keyspace.hot_count reloaded);
  check bool "load ∘ save is the identity" true (Keyspace.save reloaded = saved);
  List.iter
    (fun k ->
      let key = Ycsb.key_name k in
      check bool "reloaded key answers as before" true
        (Keyspace.handle reloaded ~key ~client:11 (Wire.Query [])
         = Keyspace.handle reference ~key ~client:11 (Wire.Query [])))
    [ 0; 3; 5 ];
  check bool "and keeps matching" true
    (Keyspace.save reloaded = Keyspace.save reference)

let test_keyspace_cold_key_edges () =
  (* The cold store's record framing: keys of length 0, 127 and 128
     (where the length varint grows to two bytes) and the wire maximum,
     holding NUL and bytes >= 0x80, demote, thaw, save and load
     exactly. *)
  let key n = String.init n (fun i -> Char.chr (i * 131 land 0xff)) in
  let keys = List.map key [ 0; 127; 128; Codec.max_key_len ] in
  let ks = Keyspace.create ~max_hot:1 () in
  let reference = Keyspace.create ~max_hot:max_int () in
  let both key client req =
    check bool "reply matches the reference" true
      (Keyspace.handle ks ~key ~client req
       = Keyspace.handle reference ~key ~client req)
  in
  List.iteri
    (fun i key ->
      both key i (Wire.Update { tag = tag (i + 1) i; payload = 100 + i }))
    keys;
  List.iteri (fun i key -> both key (i + 5) (Wire.Query [])) keys;
  check int "one key resident" 1 (Keyspace.hot_count ks);
  let saved = Keyspace.save ks in
  check bool "save matches the reference" true
    (saved = Keyspace.save reference);
  check (Alcotest.list Alcotest.string) "keys kept byte for byte"
    (List.sort compare keys) (List.map fst saved);
  let reloaded = Keyspace.load ~max_hot:1 saved in
  check bool "load ∘ save is the identity" true
    (Keyspace.save reloaded = saved);
  List.iter
    (fun key ->
      check bool "reloaded key answers as before" true
        (Keyspace.handle reloaded ~key ~client:9 (Wire.Query [])
         = Keyspace.handle reference ~key ~client:9 (Wire.Query [])))
    keys

let test_keyspace_cold_churn () =
  (* 5 000 keys through a hot set of 4, touched four times over: the
     cold store's index grows many times, thawed keys leave tombstones
     that later demotions reuse, and the dead bytes pass the live ones
     twice, so compaction moves every record twice.  Each reply and the
     final state must match a keyspace that never demotes. *)
  let nkeys = 5000 in
  let ks = Keyspace.create ~max_hot:4 () in
  let reference = Keyspace.create ~max_hot:max_int () in
  for pass = 1 to 4 do
    for i = 0 to nkeys - 1 do
      let key = Ycsb.key_name ((i * 7919) mod nkeys) in
      let req =
        if pass mod 2 = 0 then Wire.Query []
        else Wire.Update { tag = tag pass (i mod 3); payload = (pass * nkeys) + i }
      in
      if
        Keyspace.handle ks ~key ~client:(i mod 5) req
        <> Keyspace.handle reference ~key ~client:(i mod 5) req
      then Alcotest.failf "pass %d: %s answered differently" pass key
    done
  done;
  check int "every key kept" nkeys (Keyspace.key_count ks);
  check bool "save matches the reference" true
    (Keyspace.save ks = Keyspace.save reference)

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
(* Mux routing hardening                                              *)
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
        think = 0.0;
      }
  in
  check int "no client starved" 0 res.Kv_session.starved;
  check int "every op completed" 60 res.Kv_session.ops;
  check int "every op routed to a group" 60
    (Array.fold_left ( + ) 0 res.Kv_session.group_ops);
  check bool "unchecked run has no report" true (res.Kv_session.online = None);
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
    Kv_session.run ~register:Registry.fastread_w2r1 ~live_check:true
      ~cluster:remote
      (Kv_session.register_spec ~writers:2 ~readers:2 10)
  in
  check bool "attached group is remote" false
    (Cluster.local (Kv_cluster.group remote 0));
  check int "no client starved" 0 res.Kv_session.starved;
  check int "every op completed" 60 res.Kv_session.ops;
  check bool "history atomic" true
    (Option.map Transport.Check_sink.atomic res.Kv_session.online = Some true);
  check bool "reads are one round" true (res.Kv_session.read_rounds = 1.0)

let test_session_live_check () =
  (* Live checking covers every key the workload touches, with one
     streaming instance per key under a shared watermark. *)
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
      (r.Transport.Check_sink.peak_window <= 60)

let test_split_roles_many_keys () =
  (* Split writers and readers over a 20-key keyspace on two groups:
     every touched key is checked, and each protocol's rounds stay at
     its Table 1 column, however many registers the roles spread
     over.  A fresh cluster per protocol: values the first run wrote
     would read as never written in the second. *)
  List.iter
    (fun (register, write_rounds, read_rounds) ->
      let name = Registry.name register in
      let cluster = Kv_cluster.start ~groups:2 ~s:5 ~tol:1 () in
      Fun.protect ~finally:(fun () -> Kv_cluster.shutdown cluster) @@ fun () ->
      let res =
        Kv_session.run ~register ~live_check:true ~cluster
          {
            Kv_session.default_spec with
            roles = Kv_session.Split { writers = 2; readers = 2 };
            ops_per_client = 10;
            keys = 20;
            dist = Ycsb.Uniform;
          }
      in
      check int (name ^ ": every op completed") 60 res.Kv_session.ops;
      check bool (name ^ ": several keys touched") true
        (res.Kv_session.keys_touched > 1);
      (match res.Kv_session.online with
      | None -> Alcotest.fail "live_check:true returned no online report"
      | Some r ->
        check bool (name ^ ": atomic") true (Transport.Check_sink.atomic r);
        check int (name ^ ": every touched key checked")
          res.Kv_session.keys_touched r.Transport.Check_sink.keys);
      check (Alcotest.float 0.0) (name ^ ": write rounds") write_rounds
        res.Kv_session.write_rounds;
      check (Alcotest.float 0.0) (name ^ ": read rounds") read_rounds
        res.Kv_session.read_rounds)
    [ (Registry.abd_mwmr, 2.0, 2.0); (Registry.fastread_w2r1, 2.0, 1.0) ]

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
     keyspace snapshot (values per key) — we check the keyspace the
     killed server 0 will be restarted with while no reactor runs, then
     that the restart serves exactly it, end-to-end through the
     full-quorum read. *)
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
  let ks0 = Cluster.keyspace g 0 in
  let saved = Keyspace.save ks0 in
  let peek key = (List.assoc key saved).Replica.s_current.Wire.payload in
  check int "restarted server rehydrated alpha" 777 (peek "alpha");
  check int "restarted server rehydrated beta" 888 (peek "beta");
  Cluster.restart ~mode:`Recover g 0;
  check bool "the restart serves the recovered keyspace" true
    (Cluster.keyspace g 0 == ks0);
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
          Alcotest.test_case "demotion at the max_hot edges" `Quick
            test_keyspace_demotion_edges;
          Alcotest.test_case "cold keys at the length edges" `Quick
            test_keyspace_cold_key_edges;
          Alcotest.test_case "cold store growth, reuse and compaction" `Quick
            test_keyspace_cold_churn;
          QCheck_alcotest.to_alcotest keyspace_model_prop;
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
          Alcotest.test_case "split roles over many keys" `Quick
            test_split_roles_many_keys;
          Alcotest.test_case "writer bound rejected" `Quick
            test_session_rejects_bounded_writers;
          Alcotest.test_case "recover restart keeps the keyspace" `Quick
            test_recover_restart_preserves_keyspace;
        ] );
    ]
