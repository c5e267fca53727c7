(* Tests for the live TCP transport: the wire codec (round-trip and
   strictness), stream reassembly under adversarial chunking, a real
   loopback server, and full live cluster runs — including surviving [t]
   genuine server kills mid-run with the history still atomic. *)

open Registers
open Transport

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let tag ts wid = { Tstamp.ts; wid }
let value ts wid payload = { Wire.tag = tag ts wid; payload }

(* Every live register is a keyspace key; the single-register tests
   below address this one. *)
let key = "r"

(* ------------------------------------------------------------------ *)
(* Codec: deterministic round trips                                     *)
(* ------------------------------------------------------------------ *)

let sample_frames =
  [
    Codec.Keyed_request { key; rt = 0; client = 0; req = Wire.Query [] };
    Codec.Keyed_request
      {
        key = "";
        rt = 1;
        client = 7;
        req = Wire.Query [ Wire.initial_value_entry ];
      };
    Codec.Keyed_request
      {
        key = "user/\000\255";
        rt = max_int;
        client = 3;
        req = Wire.Update (value max_int 11 min_int);
      };
    Codec.Keyed_reply
      {
        key;
        rt = 42;
        client = 8;
        server = 4;
        rep = Wire.Write_ack { current = value 5 1 500 };
      };
    Codec.Keyed_reply
      {
        key = "k/9";
        rt = 9;
        client = 12;
        server = 0;
        rep =
          Wire.Read_ack
            {
              current = value 3 2 303;
              vector =
                [
                  (Wire.initial_value_entry, [ 10; 11; 12 ]);
                  (value 1 0 101, []);
                  (value 3 2 303, [ 13 ]);
                ];
            };
      };
  ]

let test_codec_roundtrip_samples () =
  List.iter
    (fun f ->
      check bool "decode (encode f) = f" true
        (Codec.decode (Codec.encode f) = f))
    sample_frames

let test_codec_large_vector () =
  (* A READACK carrying a big value vector with fat updated sets — the
     frame the codec must not choke on. *)
  let vector =
    List.init 5_000 (fun i ->
        (value i (i mod 5) (i * 17), List.init (i mod 20) (fun j -> j + 100)))
  in
  let f =
    Codec.Keyed_reply
      {
        key;
        rt = 1;
        client = 6;
        server = 2;
        rep = Wire.Read_ack { current = value 5_000 0 1; vector };
      }
  in
  let s = Codec.encode f in
  check bool "large frame survives" true (Codec.decode s = f);
  let q =
    Codec.Keyed_request
      { key; rt = 2; client = 9; req = Wire.Query (List.map fst vector) }
  in
  check bool "large query survives" true (Codec.decode (Codec.encode q) = q)

(* ------------------------------------------------------------------ *)
(* Codec: strictness                                                    *)
(* ------------------------------------------------------------------ *)

let rejects s =
  match Codec.decode s with
  | _ -> false
  | exception Codec.Decode_error _ -> true

let test_codec_rejects_truncation () =
  let full = Codec.encode (List.nth sample_frames 4) in
  for cut = 0 to String.length full - 1 do
    if not (rejects (String.sub full 0 cut)) then
      Alcotest.failf "truncation to %d bytes accepted" cut
  done

let test_codec_rejects_garbage () =
  let full = Codec.encode (List.hd sample_frames) in
  check bool "trailing byte" true (rejects (full ^ "\x00"));
  check bool "bad tag" true
    (rejects
       (let b = Bytes.of_string full in
        Bytes.set b 4 '\xff';
        Bytes.to_string b));
  check bool "absurd length prefix" true
    (rejects ("\xff\xff\xff\xff" ^ String.make 8 'x'));
  check bool "negative list length" true
    (* Request/Query with length -1. *)
    (rejects (Codec.encode (List.hd sample_frames)
              |> fun s ->
              let b = Bytes.of_string s in
              Bytes.fill b (String.length s - 8) 8 '\xff';
              Bytes.to_string b))

let test_codec_key_length_edge () =
  let at_bound = String.make Codec.max_key_len 'k' in
  let f =
    Codec.Keyed_request
      { key = at_bound; rt = 3; client = 4; req = Wire.Update (value 1 0 9) }
  in
  let wire = Codec.encode f in
  check bool "max_key_len key round-trips" true (Codec.decode wire = f);
  let st = Codec.Stream.create () in
  let half = String.length wire / 2 in
  Codec.Stream.feed st (Bytes.of_string (String.sub wire 0 half)) half;
  check bool "stream waits for the rest" true (Codec.Stream.next st = None);
  let rest = String.length wire - half in
  Codec.Stream.feed st (Bytes.of_string (String.sub wire half rest)) rest;
  check bool "max_key_len key through Stream" true
    (Codec.Stream.next st = Some f);
  check bool "encoding one byte more is refused" true
    (match
       Codec.encode
         (Codec.Keyed_request
            { key = at_bound ^ "k"; rt = 0; client = 0; req = Wire.Query [] })
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* The key length is the 8 bytes after the 4-byte prefix and the tag. *)
  let declaring n =
    let b = Bytes.of_string wire in
    Bytes.set_int64_le b 5 (Int64.of_int n);
    Bytes.to_string b
  in
  check bool "declared key length max_key_len + 1" true
    (rejects (declaring (Codec.max_key_len + 1)));
  check bool "declared key length -1" true (rejects (declaring (-1)))

let test_codec_frame_length_edge () =
  (* The 4-byte length prefix alone, declaring an [n]-byte body. *)
  let prefix n =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    b
  in
  let length_error f =
    match f () with
    | _ -> false
    | exception Codec.Decode_error msg ->
      String.starts_with ~prefix:"bad frame length" msg
  in
  let st = Codec.Stream.create () in
  Codec.Stream.feed st (prefix Codec.max_frame_len) 4;
  let before = Gc.allocated_bytes () in
  check bool "a max_frame_len prefix waits for its body" true
    (Codec.Stream.next st = None);
  check bool "no body allocated while waiting" true
    (Gc.allocated_bytes () -. before < 4096.0);
  let st = Codec.Stream.create () in
  Codec.Stream.feed st (prefix (Codec.max_frame_len + 1)) 4;
  check bool "Stream rejects max_frame_len + 1 before any body byte" true
    (length_error (fun () -> Codec.Stream.next st));
  check bool "decode rejects max_frame_len + 1" true
    (length_error (fun () ->
         Codec.decode (Bytes.to_string (prefix (Codec.max_frame_len + 1)))))

let test_codec_rejects_unkeyed_tags () =
  (* The retired unkeyed layout is the keyed one minus the key: a frame
     with key "" loses its tag byte and 8-byte key length, and the rest
     is prefixed by tag 0 (request) or 1 (reply). *)
  let retired tag f =
    let body = String.sub (Codec.encode f) 13 (Codec.frame_size f - 13) in
    let b = Bytes.create 5 in
    Bytes.set_int32_be b 0 (Int32.of_int (1 + String.length body));
    Bytes.set b 4 tag;
    Bytes.to_string b ^ body
  in
  let req = Wire.Query [] and rep = Wire.Write_ack { current = value 1 0 5 } in
  check bool "tag 0 rejected" true
    (rejects
       (retired '\000'
          (Codec.Keyed_request { key = ""; rt = 0; client = 7; req })));
  check bool "tag 1 rejected" true
    (rejects
       (retired '\001'
          (Codec.Keyed_reply
             { key = ""; rt = 0; client = 7; server = 1; rep })))

(* ------------------------------------------------------------------ *)
(* Codec: qcheck round trip                                             *)
(* ------------------------------------------------------------------ *)

let frame_gen =
  let open QCheck.Gen in
  let any_int =
    frequency
      [ (4, small_signed_int); (2, int); (1, return max_int); (1, return min_int) ]
  in
  let tag_gen =
    let* ts = frequency [ (4, small_nat); (1, int) ] in
    let* wid = int_range (-1) 10 in
    return { Tstamp.ts; wid }
  in
  let value_gen =
    let* tag = tag_gen in
    let* payload = any_int in
    return { Wire.tag; payload }
  in
  let req_gen =
    frequency
      [
        (2, map (fun vs -> Wire.Query vs) (list_size (int_bound 12) value_gen));
        (2, map (fun v -> Wire.Update v) value_gen);
      ]
  in
  let rep_gen =
    frequency
      [
        (1, map (fun v -> Wire.Write_ack { current = v }) value_gen);
        ( 2,
          let* current = value_gen in
          let* vector =
            list_size (int_bound 12)
              (pair value_gen (list_size (int_bound 6) small_nat))
          in
          return (Wire.Read_ack { current; vector }) );
      ]
  in
  let* rt = small_nat and* peer = int_bound 1000 in
  let key_gen =
    map (fun s -> "k/" ^ s) (string_size ~gen:printable (int_bound 40))
  in
  frequency
    [
      ( 1,
        let* key = key_gen in
        map
          (fun req -> Codec.Keyed_request { key; rt; client = peer; req })
          req_gen );
      ( 1,
        let* client = int_bound 1000 and* key = key_gen in
        map
          (fun rep ->
            Codec.Keyed_reply { key; rt; client; server = peer; rep })
          rep_gen );
    ]

let frame_print f =
  match f with
  | Codec.Keyed_request { key; rt; client; req } ->
    Format.asprintf "kreq key=%S rt=%d client=%d %a" key rt client Wire.pp_req
      req
  | Codec.Keyed_reply { key; rt; client; server; rep } ->
    Format.asprintf "krep key=%S rt=%d client=%d server=%d %a" key rt client
      server Wire.pp_rep rep

let codec_roundtrip_prop =
  QCheck.Test.make
    ~name:"codec round trip: decode (encode f) = f"
    ~count:500
    (QCheck.make ~print:frame_print frame_gen)
    (fun f -> Codec.decode (Codec.encode f) = f)

let codec_prefix_prop =
  QCheck.Test.make
    ~name:"codec rejects every strict prefix"
    ~count:100
    (QCheck.make ~print:frame_print frame_gen)
    (fun f ->
      let s = Codec.encode f in
      let cut = String.length s / 2 in
      rejects (String.sub s 0 cut))

let codec_encode_into_prop =
  (* The zero-allocation fast path must be byte-identical to [encode],
     the buffer must be cleared of stale content, and the sizing pass
     must predict the exact frame length. *)
  let b = Buffer.create 16 in
  QCheck.Test.make
    ~name:"encode_into = encode, frame_size exact, buffer reusable"
    ~count:500
    (QCheck.make ~print:frame_print frame_gen)
    (fun f ->
      Buffer.add_string b "stale bytes from the previous frame";
      Codec.encode_into b f;
      let s = Buffer.contents b in
      s = Codec.encode f && String.length s = Codec.frame_size f)

(* ------------------------------------------------------------------ *)
(* Stream reassembly                                                    *)
(* ------------------------------------------------------------------ *)

(* Everything [st] has complete, in order. *)
let drain_stream st =
  let rec go acc =
    match Codec.Stream.next st with
    | Some f -> go (f :: acc)
    | None -> List.rev acc
  in
  go []

let stream_split_prop =
  (* However the byte stream is cut into feeds, and however many frames
     pile up between drains, the same frames come out in order. *)
  let chunk = QCheck.Gen.(pair (int_range 1 300) bool) in
  QCheck.Test.make ~name:"any split of a frame stream decodes the same frames"
    ~count:300
    (QCheck.make
       ~print:(fun (fs, cs) ->
         let chunk (n, drain) = string_of_int n ^ if drain then "!" else "" in
         Printf.sprintf "%d frames, chunks [%s]" (List.length fs)
           (String.concat "; " (List.map chunk cs)))
       QCheck.Gen.(
         pair
           (list_size (int_range 0 30) frame_gen)
           (list_size (int_range 1 20) chunk)))
    (fun (frames, chunks) ->
      let wire = String.concat "" (List.map Codec.encode frames) in
      let st = Codec.Stream.create () in
      let chunks = Array.of_list chunks in
      let out = ref [] and pos = ref 0 and i = ref 0 in
      while !pos < String.length wire do
        let n, drain = chunks.(!i mod Array.length chunks) in
        let n = min n (String.length wire - !pos) in
        incr i;
        Codec.Stream.feed st (Bytes.of_string (String.sub wire !pos n)) n;
        pos := !pos + n;
        if drain then out := List.rev_append (drain_stream st) !out
      done;
      List.rev_append !out (drain_stream st) = frames
      && Codec.Stream.next st = None)

let test_stream_one_big_feed () =
  (* 6 000 frames in one feed: every one decodes, in order. *)
  let frames =
    List.init 6000 (fun i ->
        Codec.Keyed_request
          {
            key = Printf.sprintf "user%07d" i;
            rt = i;
            client = 3;
            req = Wire.Query [];
          })
  in
  let wire = Bytes.of_string (String.concat "" (List.map Codec.encode frames)) in
  let st = Codec.Stream.create () in
  Codec.Stream.feed st wire (Bytes.length wire);
  let out = drain_stream st in
  check int "frame count" 6000 (List.length out);
  check bool "order preserved" true (out = frames)

let test_stream_byte_at_a_time () =
  let frames = sample_frames in
  let wire = String.concat "" (List.map Codec.encode frames) in
  let st = Codec.Stream.create () in
  let out = ref [] in
  String.iter
    (fun ch ->
      Codec.Stream.feed st (Bytes.make 1 ch) 1;
      let rec drain () =
        match Codec.Stream.next st with
        | Some f ->
          out := f :: !out;
          drain ()
        | None -> ()
      in
      drain ())
    wire;
  check bool "all frames recovered in order" true (List.rev !out = frames);
  check bool "no residue" true (Codec.Stream.next st = None)

let test_stream_mixed_chunks () =
  let frames = List.concat [ sample_frames; sample_frames; sample_frames ] in
  let wire = String.concat "" (List.map Codec.encode frames) in
  let st = Codec.Stream.create () in
  let out = ref [] in
  let pos = ref 0 in
  let sizes = [ 1; 3; 7; 64; 2; 1024; 5 ] in
  let i = ref 0 in
  while !pos < String.length wire do
    let n = min (List.nth sizes (!i mod List.length sizes)) (String.length wire - !pos) in
    incr i;
    Codec.Stream.feed st (Bytes.of_string (String.sub wire !pos n)) n;
    pos := !pos + n;
    let rec drain () =
      match Codec.Stream.next st with
      | Some f ->
        out := f :: !out;
        drain ()
      | None -> ()
    in
    drain ()
  done;
  check int "frame count" (List.length frames) (List.length !out);
  check bool "order preserved" true (List.rev !out = frames)

(* [Stream.fill] over a socketpair: [f writer reader] writes into
   [writer]; [reader] is non-blocking, as a reactor's sockets are. *)
let with_socketpair f =
  let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Netio.set_nonblock r;
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect
    ~finally:(fun () ->
      close w;
      close r)
    (fun () -> f w r)

let write_string fd s =
  Netio.write_all fd (Bytes.of_string s) 0 (String.length s)

let test_fill_large_frame () =
  (* A 9.6 KiB frame, more than the stream's initial 4 KiB, written in
     three pieces: no frame until the last byte is in. *)
  let frame =
    Codec.Keyed_request
      {
        key;
        rt = 1;
        client = 2;
        req = Wire.Query (List.init 400 (fun i -> value i 1 i));
      }
  in
  let wire = Codec.encode frame in
  check bool "larger than 4 KiB" true (String.length wire > 4096);
  with_socketpair (fun w r ->
      let st = Codec.Stream.create () in
      let third = String.length wire / 3 in
      let pieces =
        [
          String.sub wire 0 third;
          String.sub wire third third;
          String.sub wire (2 * third) (String.length wire - (2 * third));
        ]
      in
      List.iteri
        (fun i piece ->
          write_string w piece;
          check bool "fill: still open" true (Codec.Stream.fill st r);
          let out = drain_stream st in
          if i < 2 then
            check int "no frame before the last piece" 0 (List.length out)
          else check bool "the frame, whole" true (out = [ frame ]))
        pieces)

let test_fill_many_small_frames () =
  (* 1 000 small frames in one write: one fill takes them all. *)
  let frames =
    List.init 1000 (fun i ->
        Codec.Keyed_request
          {
            key = Printf.sprintf "k%d" i;
            rt = i;
            client = 3;
            req = Wire.Query [];
          })
  in
  with_socketpair (fun w r ->
      write_string w (String.concat "" (List.map Codec.encode frames));
      let st = Codec.Stream.create () in
      check bool "fill: still open" true (Codec.Stream.fill st r);
      let out = drain_stream st in
      check int "frame count" 1000 (List.length out);
      check bool "order preserved" true (out = frames))

let test_fill_eof_mid_frame () =
  (* The peer closes halfway through a frame: [fill] reports the close
     and the stream yields no partial frame.  The half frame comes back
     in a short read, which ends the first call without a confirming
     read; the next readable event's call reads the EOF. *)
  let wire = Codec.encode (List.nth sample_frames 4) in
  with_socketpair (fun w r ->
      write_string w (String.sub wire 0 (String.length wire / 2));
      Unix.shutdown w Unix.SHUTDOWN_SEND;
      let st = Codec.Stream.create () in
      check bool "fill: a short read" true (Codec.Stream.fill st r);
      check bool "fill: closed" false (Codec.Stream.fill st r);
      check bool "no partial frame" true (Codec.Stream.next st = None))

let test_fill_empty_socket () =
  with_socketpair (fun _ r ->
      let st = Codec.Stream.create () in
      check bool "fill: still open" true (Codec.Stream.fill st r);
      check bool "no frame" true (Codec.Stream.next st = None))

(* ------------------------------------------------------------------ *)
(* A real loopback server                                               *)
(* ------------------------------------------------------------------ *)

(* A one-server plane for tests that just need a client: quorum 1, so
   every round trip is one request and its reply. *)
let one_server_mux addr ~client =
  let mux = Mux.create ~servers:[| addr |] ~quorum:1 () in
  (mux, Mux.client mux ~client)

let test_server_roundtrip () =
  let server = Server.start ~id:0 () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let mux, ep = one_server_mux addr ~client:10 in
  let got = ref None in
  Mux.exec ~key ep (Wire.Update (value 1 0 101)) (fun replies ->
      got := Some replies);
  (* Asserting one exact reply shape; every other wire message is a
     test failure, so the wildcard is deliberate. *)
  (match[@warning "-4"] !got with
  | Some [ (0, Wire.Write_ack { current }) ] ->
    check bool "server adopted the value" true
      (Tstamp.equal current.Wire.tag (tag 1 0))
  | Some _ | None -> Alcotest.fail "expected one write ack from server 0");
  let got = ref None in
  Mux.exec ~key ep (Wire.Query []) (fun replies -> got := Some replies);
  (match[@warning "-4"] !got with
  | Some [ (0, Wire.Read_ack { current; vector }) ] ->
    check bool "query sees the update" true
      (Tstamp.equal current.Wire.tag (tag 1 0));
    check bool "vector records the writer" true
      (List.exists
         (fun (v, upd) ->
           Tstamp.equal v.Wire.tag (tag 1 0) && List.mem 10 upd)
         vector)
  | Some _ | None -> Alcotest.fail "expected one read ack from server 0");
  check int "two rounds completed" 2 (Mux.rounds_completed ep);
  Mux.shutdown mux;
  Server.stop server

let test_server_refuses_bad_address () =
  let refused ?host port =
    match Server.start ?host ~port () with
    | server ->
      Server.stop server;
      false
    | exception Invalid_argument _ -> true
  in
  check bool "port 70000 refused" true (refused 70000);
  check bool "port -5 refused" true (refused (-5));
  check bool "port 65536 refused" true (refused 65536);
  check bool "hostname refused" true (refused ~host:"localhost" 0)

let test_server_survives_garbage () =
  (* A peer speaking garbage gets disconnected; the server keeps serving
     well-formed clients. *)
  let server = Server.start ~id:0 () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let bad = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect bad addr;
  let junk = Bytes.of_string "\xff\xff\xff\xffnonsense" in
  Netio.write_all bad junk 0 (Bytes.length junk);
  let mux, ep = one_server_mux addr ~client:11 in
  let ok = ref false in
  Mux.exec ~key ep (Wire.Update (value 2 1 202)) (fun _ -> ok := true);
  check bool "good client still served" true !ok;
  (try Unix.close bad with Unix.Unix_error _ -> ());
  Mux.shutdown mux;
  Server.stop server

let test_server_reaps_handlers () =
  (* Connect/disconnect churn must not leak connection state: the
     reactor closes a connection the moment its socket reports EOF, so
     once every client is gone the live connection count returns to
     zero (no reaper tick to wait out — only the event-loop wakeup). *)
  let server = Server.start ~id:0 () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  for round = 1 to 10 do
    let mux, ep = one_server_mux addr ~client:round in
    let ok = ref false in
    Mux.exec ~key ep (Wire.Update (value round 0 (round * 3))) (fun _ ->
        ok := true);
    check bool "op served" true !ok;
    Mux.shutdown mux
  done;
  let deadline = Clock.now () +. 5.0 in
  while Server.connection_count server > 0 && Clock.now () < deadline do
    Thread.delay 0.05
  done;
  check int "all connections closed" 0 (Server.connection_count server);
  Server.stop server

(* ------------------------------------------------------------------ *)
(* The reactor data path                                                *)
(* ------------------------------------------------------------------ *)

(* Raw-socket helpers for talking straight wire to a server, bypassing
   the client planes: the reactor's framing and fairness claims are
   about byte streams, so the tests speak bytes. *)
let raw_connect addr =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  fd

let raw_send fd s =
  let b = Bytes.of_string s in
  Netio.write_all fd b 0 (Bytes.length b)

let query_frame ~rt ~client =
  Codec.encode (Codec.Keyed_request { key; rt; client; req = Wire.Query [] })

(* Read complete frames off [fd] into [st] until [want] have arrived. *)
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

let test_reactor_interleaved_partial_frames () =
  (* Many connections, each receiving its frames one byte at a time,
     interleaved round-robin: at every instant the reactor holds
     [nconns] partial frames in per-connection streams.  Every frame
     must still be answered, in order, to the connection that sent it. *)
  let server = Server.start ~id:0 () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let nconns = 8 and per = 5 in
  let conns = Array.init nconns (fun _ -> raw_connect addr) in
  let wires =
    Array.init nconns (fun i ->
        String.concat ""
          (List.init per (fun rt -> query_frame ~rt ~client:(100 + i))))
  in
  let maxlen = Array.fold_left (fun m w -> max m (String.length w)) 0 wires in
  let byte = Bytes.create 1 in
  for pos = 0 to maxlen - 1 do
    Array.iteri
      (fun i fd ->
        if pos < String.length wires.(i) then begin
          Bytes.set byte 0 wires.(i).[pos];
          Netio.write_all fd byte 0 1
        end)
      conns
  done;
  let buf = Bytes.create 8192 in
  Array.iteri
    (fun i fd ->
      let frames = raw_read_frames fd (Codec.Stream.create ()) buf per in
      List.iteri
        (fun k f ->
          match[@warning "-4"] f with
          | Codec.Keyed_reply
              { key = echoed; rt; client; server = sid; rep = Wire.Read_ack _ }
            ->
            check Alcotest.string "key echoed" key echoed;
            check int "replies in request order" k rt;
            check int "client echoed" (100 + i) client;
            check int "server id echoed" 0 sid
          | _ -> Alcotest.fail "expected a read ack")
        frames)
    conns;
  Array.iter Unix.close conns;
  Server.stop server

let test_reactor_backpressure_slow_reader () =
  (* A peer that stops reading must cost the reactor a write-interest
     registration, not a blocked thread: while client A sits on
     thousands of unread replies (tiny SO_RCVBUF, nothing drained), a
     concurrent client B's operations keep completing.  Afterwards A
     reads everything it was owed, in order — buffered server-side under
     backpressure, not dropped. *)
  let server = Server.start ~id:0 () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  (* Fatten the replies first: every distinct written tag adds a vector
     entry to each subsequent Read_ack, so the pipelined queries below
     overflow any kernel buffer pair and force EAGAIN on the server. *)
  let seed_mux, seed_ep = one_server_mux addr ~client:50 in
  for w = 1 to 100 do
    let ok = ref false in
    Mux.exec ~key seed_ep (Wire.Update (value w (w mod 8) (1000 + w)))
      (fun _ -> ok := true);
    check bool "seed write served" true !ok
  done;
  Mux.shutdown seed_mux;
  let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int a Unix.SO_RCVBUF 4096;
  Unix.connect a addr;
  let nq = 2000 in
  let reqs = Buffer.create (nq * 24) in
  for rt = 0 to nq - 1 do
    Buffer.add_string reqs (query_frame ~rt ~client:60)
  done;
  raw_send a (Buffer.contents reqs);
  (* A is now owed ~nq fat replies it is not reading.  B must not care. *)
  let b_mux, b_ep = one_server_mux addr ~client:61 in
  let t0 = Clock.now () in
  for _ = 1 to 20 do
    let ok = ref false in
    Mux.exec ~key b_ep (Wire.Query []) (fun _ -> ok := true);
    check bool "B's op completed" true !ok
  done;
  let b_elapsed = Clock.now () -. t0 in
  Mux.shutdown b_mux;
  check bool "B not stalled behind the slow reader" true (b_elapsed < 5.0);
  (* Now drain A: every reply arrives, in request order. *)
  let st = Codec.Stream.create () in
  let buf = Bytes.create 65536 in
  let got = ref 0 in
  while !got < nq do
    let n = Netio.read a buf 0 (Bytes.length buf) in
    if n = 0 then Alcotest.fail "server severed the slow reader";
    Codec.Stream.feed st buf n;
    let rec drain () =
      match Codec.Stream.next st with
      | Some (Codec.Keyed_reply { rt; _ }) ->
        check int "A's replies in order" !got rt;
        incr got;
        drain ()
      | Some (Codec.Keyed_request _) ->
        Alcotest.fail "server sent an unexpected frame"
      | None -> ()
    in
    drain ()
  done;
  Unix.close a;
  Server.stop server

let test_reactor_reader_past_ceiling () =
  (* The out-queue ceiling at its edge: one peer pipelines 6000 queries
     in a single write while reading continuously.  Its replies total
     well over [outq_limit] (4 MiB), so the reactor must stop decoding
     and resume as the queue drains — never sever a peer that reads. *)
  let server = Server.start ~id:0 () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  (* 100 distinct written tags: each Read_ack then carries a 100-entry
     vector, ~1.6 KB. *)
  let seed_mux, seed_ep = one_server_mux addr ~client:50 in
  for w = 1 to 100 do
    Mux.exec ~key seed_ep (Wire.Update (value w (w mod 8) (1000 + w)))
      (fun _ -> ())
  done;
  Mux.shutdown seed_mux;
  let fd = raw_connect addr in
  let nq = 6000 in
  let got = ref 0 and bytes = ref 0 and failure = ref None in
  let reader =
    Thread.create
      (fun () ->
        let st = Codec.Stream.create () and buf = Bytes.create 65536 in
        try
          while !got < nq do
            let n = Netio.read fd buf 0 (Bytes.length buf) in
            if n = 0 then failwith "server severed a reading peer";
            bytes := !bytes + n;
            Codec.Stream.feed st buf n;
            let rec drain () =
              match[@warning "-4"] Codec.Stream.next st with
              | Some (Codec.Keyed_reply { rt; client = 62; _ }) when rt = !got
                ->
                incr got;
                drain ()
              | Some _ -> failwith "reply out of order"
              | None -> ()
            in
            drain ()
          done
        with
        | Failure msg -> failure := Some msg
        | Unix.Unix_error (e, fn, _) ->
          failure := Some (fn ^ ": " ^ Unix.error_message e))
      ()
  in
  let reqs = Buffer.create (nq * 24) in
  for rt = 0 to nq - 1 do
    Buffer.add_string reqs (query_frame ~rt ~client:62)
  done;
  raw_send fd (Buffer.contents reqs);
  Thread.join reader;
  Unix.close fd;
  Server.stop server;
  (match !failure with Some msg -> Alcotest.fail msg | None -> ());
  check int "every reply, in order" nq !got;
  check bool "the replies overran the out-queue ceiling" true
    (!bytes > 4 * 1024 * 1024)

let test_reactor_due_replies_one_write () =
  (* 64 queries decoded in one batch are answered together: their
     replies leave in one write, in request order. *)
  let server = Server.start ~id:0 () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let fd = raw_connect addr in
  let n = 64 in
  let before = Netio.counts () in
  raw_send fd
    (String.concat "" (List.init n (fun rt -> query_frame ~rt ~client:80)));
  let frames = raw_read_frames fd (Codec.Stream.create ()) (Bytes.create 65536) n in
  let after = Netio.counts () in
  Unix.close fd;
  Server.stop server;
  List.iteri
    (fun i f ->
      match[@warning "-4"] f with
      | Codec.Keyed_reply { rt; client = 80; _ } ->
        check int "replies in request order" i rt
      | _ -> Alcotest.fail "expected a reply to client 80")
    frames;
  check int "one reactor write for the whole batch" 1
    (after.Netio.writes_nb - before.Netio.writes_nb)

let test_reactor_connection_churn () =
  (* 256 concurrent short-lived connections — the regime that used to
     cost a thread spawn + join each.  Every connection gets its reply,
     and the connection count returns to zero afterwards. *)
  let server = Server.start ~id:0 () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let n = 256 in
  let failures = Array.make n None in
  let body i () =
    match
      let fd = raw_connect addr in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          raw_send fd (query_frame ~rt:0 ~client:(300 + i));
          let buf = Bytes.create 8192 in
          match[@warning "-4"]
            raw_read_frames fd (Codec.Stream.create ()) buf 1
          with
          | [ Codec.Keyed_reply { rt = 0; client; server = 0; _ } ]
            when client = 300 + i ->
            ()
          | _ -> failwith "unexpected reply")
    with
    | () -> ()
    | exception Unix.Unix_error (e, fn, _) ->
      failures.(i) <- Some (fn ^ ": " ^ Unix.error_message e)
    | exception Failure msg -> failures.(i) <- Some msg
    | exception Codec.Decode_error msg -> failures.(i) <- Some msg
  in
  let threads = List.init n (fun i -> Thread.create (body i) ()) in
  List.iter Thread.join threads;
  Array.iteri
    (fun i f ->
      match f with
      | Some msg -> Alcotest.failf "connection %d: %s" i msg
      | None -> ())
    failures;
  let deadline = Clock.now () +. 5.0 in
  while Server.connection_count server > 0 && Clock.now () < deadline do
    Thread.delay 0.02
  done;
  check int "every connection closed" 0 (Server.connection_count server);
  Server.stop server

(* A single register on a fresh one-group cluster through the live
   workload driver, streaming checker attached: [ops] writes per
   writer, [2 × ops] reads per reader. *)
let run_register ?crashes ?faults ?(rt_timeout = 0.5)
    ?max_rt_retries ?think ~register ~s ~tol ~writers ~readers ops =
  let cluster = Kv.Kv_cluster.start ?faults ~groups:1 ~s ~tol () in
  Fun.protect
    ~finally:(fun () -> Kv.Kv_cluster.shutdown cluster)
    (fun () ->
      Kv.Kv_session.run ?crashes ?faults ~rt_timeout
        ?max_rt_retries ~live_check:true ~register ~cluster
        (Kv.Kv_session.register_spec ?think ~writers ~readers ops))

(* The streaming checker's verdict on a run. *)
let atomic (res : Kv.Kv_session.result) =
  match res.Kv.Kv_session.online with
  | Some r -> Check_sink.atomic r
  | None -> Alcotest.fail "live_check:true returned no online report"

let test_reactor_live_kill_restart () =
  (* A kill + recover-restart mid-run through [Kv_session.run]'s
     schedule: the restarted server's fresh reactor takes the redialled
     connection and the history stays atomic. *)
  let res =
    run_register
      ~crashes:Kv.Kv_session.[ (0.05, 0, 2, Kill); (0.3, 0, 2, Restart `Recover) ]
      ~register:Registry.abd_mwmr ~s:3 ~tol:1 ~writers:2 ~readers:2 6
  in
  check bool "history atomic across the restart" true (atomic res);
  check int "no client starved" 0 res.Kv.Kv_session.starved

(* ------------------------------------------------------------------ *)
(* Mux: the shared-connection client plane                              *)
(* ------------------------------------------------------------------ *)

(* A scripted server: a loopback listener whose first accepted
   connection [script] serves on its own thread.  Returns the address
   to dial and a function that waits for [script] to return and closes
   everything. *)
let scripted_server ?rcvbuf script =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  (* Set on the listener, so the accepted socket starts with it. *)
  Option.iter (Unix.setsockopt_int listener Unix.SO_RCVBUF) rcvbuf;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 8;
  let addr = Unix.getsockname listener in
  let th =
    Thread.create
      (fun () ->
        (* A blocking listener: accept_nb parks until the mux dials. *)
        match Netio.accept_nb listener with
        | Some fd ->
          (try script fd with
          | Unix.Unix_error _ | Failure _ | Codec.Decode_error _ -> ());
          Unix.close fd
        | None -> ())
      ()
  in
  ( addr,
    fun () ->
      Thread.join th;
      Unix.close listener )

(* The next request off [fd]; [Failure] at EOF. *)
let next_request fd st buf =
  let rec go () =
    match Codec.Stream.next st with
    | Some (Codec.Keyed_request { key; rt; client; _ }) -> (key, rt, client)
    | Some (Codec.Keyed_reply _) -> failwith "a client sent a reply"
    | None ->
      let n = Netio.read fd buf 0 (Bytes.length buf) in
      if n = 0 then failwith "closed";
      Codec.Stream.feed st buf n;
      go ()
  in
  go ()

let ack_frame ~key ~rt ~client =
  Codec.encode
    (Codec.Keyed_reply
       {
         key;
         rt;
         client;
         server = 0;
         rep = Wire.Write_ack { current = Wire.initial_value_entry };
       })

(* Answers every request at once, with blocking writes, until the mux
   hangs up. *)
let echo_server () =
  scripted_server (fun fd ->
      let st = Codec.Stream.create () and buf = Bytes.create 65536 in
      while true do
        let key, rt, client = next_request fd st buf in
        raw_send fd (ack_frame ~key ~rt ~client)
      done)

let test_mux_interleaved_clients () =
  (* Many concurrent clients over ONE shared connection per server: the
     loop must route every reply to the mailbox that opened the round
     trip.  Any cross-client delivery would either strand an exec (its
     quorum never fills → Unavailable) or surface as a late/dropped
     frame, so "every op completes, exactly one round trip each, zero
     late replies" is a routing-correctness certificate. *)
  let server = Server.start ~id:0 () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let mux = Mux.create ~servers:[| addr |] ~quorum:1 () in
  let n_clients = 8 and ops = 40 in
  let completed = Array.make n_clients 0 in
  let failures = Array.make n_clients None in
  let handles = Array.init n_clients (fun c -> Mux.client mux ~client:(100 + c)) in
  let body c () =
    let h = handles.(c) in
    try
      for n = 1 to ops do
        let ts = (c * 10_000) + n in
        let req =
          if n mod 3 = 0 then Wire.Query []
          else Wire.Update (value ts c ((ts * 7) + c))
        in
        Mux.exec ~key h req (fun replies ->
            match replies with
            | [ (0, _) ] -> completed.(c) <- completed.(c) + 1
            | rs ->
              failures.(c) <-
                Some (Printf.sprintf "client %d: %d replies" c (List.length rs)))
      done
    with Mux.Unavailable msg -> failures.(c) <- Some msg
  in
  let threads = List.init n_clients (fun c -> Thread.create (body c) ()) in
  List.iter Thread.join threads;
  Array.iteri
    (fun c f ->
      match f with
      | Some msg -> Alcotest.failf "client %d failed: %s" c msg
      | None ->
        check int "every op completed" ops completed.(c);
        check int "one round trip per op" ops
          (Mux.rounds_completed handles.(c));
        check int "no stray deliveries" 0 (Mux.late_replies handles.(c)))
    failures;
  Array.iter Mux.release handles;
  Mux.shutdown mux;
  Server.stop server

let test_mux_quorum_with_dead_server () =
  (* Quorum semantics on the shared plane: with one of three servers
     never reachable, execs still complete on the surviving quorum. *)
  let servers = Array.init 2 (fun i -> Server.start ~id:i ()) in
  let dead = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  (* Bound but never listening: connects are refused. *)
  let dead_port =
    match Unix.getsockname dead with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let addr p = Unix.ADDR_INET (Unix.inet_addr_loopback, p) in
  let addrs =
    [|
      addr (Server.port servers.(0));
      addr dead_port;
      addr (Server.port servers.(1));
    |]
  in
  let mux =
    Mux.create ~rt_timeout:0.2 ~servers:addrs ~quorum:2 ()
  in
  let h = Mux.client mux ~client:50 in
  let got = ref [] in
  Mux.exec ~key h (Wire.Update (value 1 0 11)) (fun rs ->
      got := List.map fst rs);
  check bool "quorum from live servers" true
    (List.sort compare !got = [ 0; 2 ]);
  Mux.release h;
  Mux.shutdown mux;
  (try Unix.close dead with Unix.Unix_error _ -> ());
  Array.iter Server.stop servers

(* ------------------------------------------------------------------ *)
(* Live cluster runs                                                    *)
(* ------------------------------------------------------------------ *)

let test_live_ls97_atomic () =
  let res =
    run_register ~register:Registry.abd_mwmr ~s:3 ~tol:1 ~writers:2
      ~readers:2 15
  in
  check bool "history atomic" true (atomic res);
  check int "no client starved" 0 res.Kv.Kv_session.starved;
  check bool "writes take two rounds" true
    (res.Kv.Kv_session.write_rounds = 2.0);
  check bool "reads take two rounds" true
    (res.Kv.Kv_session.read_rounds = 2.0)

let test_live_w2r1_fast_read () =
  (* S=5 t=1 R=2: inside the R < S/t − 2 regime, so W2R1 must be atomic
     with strictly one-round reads — the paper's headline, on sockets. *)
  let res =
    run_register ~register:Registry.fastread_w2r1 ~s:5 ~tol:1 ~writers:2
      ~readers:2 15
  in
  check bool "history atomic" true (atomic res);
  check bool "writes take two rounds" true
    (res.Kv.Kv_session.write_rounds = 2.0);
  check bool "reads are one round" true (res.Kv.Kv_session.read_rounds = 1.0)

let test_live_single_writer_guard () =
  check bool "SWMR rejects two writers" true
    (match
       run_register ~register:Registry.abd_swmr ~s:3 ~tol:1 ~writers:2
         ~readers:2 20
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_live_survives_t_kills () =
  (* S=5 t=2: kill two real server processes mid-run.  The remaining
     quorum of 3 must keep completing operations and the history must
     still be atomic — the acceptance bar for the live transport. *)
  let cluster = Kv.Kv_cluster.start ~groups:1 ~s:5 ~tol:2 () in
  let res =
    Fun.protect
      ~finally:(fun () -> Kv.Kv_cluster.shutdown cluster)
      (fun () ->
        let res =
          Kv.Kv_session.run
            ~crashes:Kv.Kv_session.[ (0.02, 0, 0, Kill); (0.05, 0, 3, Kill) ]
            ~rt_timeout:0.5 ~live_check:true ~register:Registry.abd_mwmr
            ~cluster
            (Kv.Kv_session.register_spec ~think:0.004 ~writers:2 ~readers:2
               20)
        in
        let running = Cluster.running (Kv.Kv_cluster.group cluster 0) in
        check (Alcotest.list int) "both targets down" [ 0; 3 ]
          (List.filter (fun i -> not (List.mem i running)) [ 0; 1; 2; 3; 4 ]);
        res)
  in
  check int "no client starved" 0 res.Kv.Kv_session.starved;
  check bool "history atomic across the kills" true (atomic res);
  (* 2 writers × 20 writes + 2 readers × 40 reads. *)
  check int "all writes completed" 120 res.Kv.Kv_session.ops

let test_rounds_accounting_under_overkill () =
  (* Kill MORE servers than the protocol tolerates, with a short timeout
     and no retries, so some clients abort mid-operation.  The rounds an
     aborted op burned before failing (e.g. the Query round of a
     two-round write whose Update found no quorum) must NOT leak into
     the per-op means: every completed LS97 write is exactly 2 rounds,
     so the mean over completed ops stays exactly 2.0 (or 0 if nothing
     completed) no matter where the crash landed. *)
  let res =
    run_register
      ~crashes:Kv.Kv_session.[ (0.03, 0, 0, Kill); (0.03, 0, 1, Kill) ]
      ~rt_timeout:0.05 ~max_rt_retries:0 ~think:0.002
      ~register:Registry.abd_mwmr ~s:3 ~tol:1 ~writers:2 ~readers:2 50
  in
  check bool "quorum genuinely lost" true (res.Kv.Kv_session.starved > 0);
  check bool "completed writes average exactly two rounds" true
    (res.Kv.Kv_session.write_rounds = 2.0
    || res.Kv.Kv_session.write_rounds = 0.0);
  check bool "completed reads average exactly two rounds" true
    (res.Kv.Kv_session.read_rounds = 2.0
    || res.Kv.Kv_session.read_rounds = 0.0);
  (* The stream may end with pending ops (the aborted ones) but
     everything that responded must still be atomic. *)
  check bool "history atomic" true (atomic res)

let test_live_adaptive_atomic () =
  (* The adaptive register beyond the fast-read threshold, on sockets. *)
  let res =
    run_register ~register:Registry.adaptive ~s:3 ~tol:1 ~writers:2
      ~readers:3 10
  in
  check bool "history atomic" true (atomic res);
  check int "no client starved" 0 res.Kv.Kv_session.starved

(* ------------------------------------------------------------------ *)
(* Chaos: fault injection, EINTR hardening, restart/recovery            *)
(* ------------------------------------------------------------------ *)

let test_clock_advances () =
  let a = Clock.now () in
  Thread.delay 0.01;
  let b = Clock.now () in
  check bool "clock advances" true (b > a);
  check bool "monotonic source available" true Clock.monotonic

let test_netio_eintr_retry () =
  (* OCaml installs signal handlers without SA_RESTART, so a blocking
     write interrupted by SIGALRM raises EINTR.  Storm the process with
     an interval timer while pushing megabytes through a socketpair with
     a deliberately slow consumer: Netio.write_all / Netio.read must
     retry through every interruption and deliver every byte. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let total = 4 * 1024 * 1024 in
  let received = ref 0 in
  let reader =
    Thread.create
      (fun () ->
        let buf = Bytes.create 65536 in
        let rec loop () =
          let n = Netio.read b buf 0 (Bytes.length buf) in
          if n > 0 then begin
            received := !received + n;
            (* Slow consumer: keeps the writer blocked inside Unix.write
               long enough for timer signals to land mid-call. *)
            Thread.delay 0.001;
            loop ()
          end
        in
        loop ())
      ()
  in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let timer v = { Unix.it_interval = v; it_value = v } in
  ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.002));
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.0));
      Sys.set_signal Sys.sigalrm old)
    (fun () ->
      let chunk = Bytes.make 65536 'x' in
      let sent = ref 0 in
      while !sent < total do
        let len = min (Bytes.length chunk) (total - !sent) in
        Netio.write_all a chunk 0 len;
        sent := !sent + len
      done);
  Unix.close a;
  Thread.join reader;
  Unix.close b;
  check int "every byte arrived despite the signal storm" total !received

let test_netio_counts_advance () =
  (* Every Netio syscall wrapper bumps its counter. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let r, w = Unix.pipe ~cloexec:true () in
  Netio.set_nonblock r;
  Netio.set_nonblock w;
  let p = Netio.Poller.create () in
  Netio.Poller.add p r ~want_write:false;
  let buf = Bytes.make 8 'x' in
  let c0 = Netio.counts () in
  Netio.write_all a buf 0 8;
  ignore (Netio.read b buf 0 8);
  Netio.set_nonblock a;
  ignore (Netio.write_nb a buf 0 8);
  ignore (Netio.read_nb b buf 0 8);
  Netio.notify w;
  ignore (Netio.Poller.wait p ~timeout:0.0 (fun _ ~readable:_ ~writable:_ -> ()));
  Netio.drain_wake r;
  let c1 = Netio.counts () in
  Netio.Poller.close p;
  List.iter Unix.close [ a; b; r; w ];
  let open Netio in
  check bool "blocking writes counted" true (c1.writes - c0.writes >= 1);
  check bool "non-blocking writes counted" true
    (c1.writes_nb - c0.writes_nb >= 1);
  (* read, read_nb, and drain_wake's read to EAGAIN (at least two). *)
  check bool "reads counted" true (c1.reads - c0.reads >= 4);
  check bool "waits counted" true (c1.waits - c0.waits >= 1);
  check bool "notifies counted" true (c1.notifies - c0.notifies >= 1)

(* The soak storm, rule for rule as [mwreg live --drop 0.08 --delay
   0.03 --duplicate 0.1 --seed SEED] builds it: drops, then a delay of
   up to 30 ms on a quarter of the frames, then duplicates. *)
let storm ~seed =
  Faults.create ~seed
    [
      Faults.rule ~prob:0.08 Faults.Drop;
      Faults.rule ~prob:0.25
        (Faults.Latency { base = 0.03 /. 4.0; jitter = 0.75 *. 0.03 });
      Faults.rule ~prob:0.1 Faults.Duplicate;
    ]

let test_faults_deterministic () =
  let probe p =
    List.init 400 (fun i ->
        Faults.deliveries p ~dir:Faults.To_server ~server:(i mod 5)
          ~client:(5 + (i mod 4)) ~rt:(i / 4) ~salt:(i mod 3))
  in
  let d1 = probe (storm ~seed:7) in
  check bool "same seed, same schedule" true (d1 = probe (storm ~seed:7));
  check bool "different seed, different schedule" true
    (d1 <> probe (storm ~seed:8));
  check bool "some frames dropped" true (List.exists (fun d -> d = []) d1);
  check bool "some frames duplicated" true
    (List.exists (fun d -> List.length d = 2) d1);
  check bool "retry salt redraws the decision" true
    (List.exists
       (fun i ->
         let p = storm ~seed:7 in
         let at salt =
           Faults.deliveries p ~dir:Faults.To_server ~server:0 ~client:5 ~rt:i
             ~salt
         in
         at 0 = [] && at 1 <> [])
       (List.init 100 Fun.id))

(* A delay of up to 50 ms: 12.5 ms plus a per-copy jitter below
   37.5 ms. *)
let delay_05 = Faults.Latency { base = 0.0125; jitter = 0.0375 }

let test_dup_delay_independent_copies () =
  (* Duplicate + a jittered delay composed: both copies of a frame must draw their
     own deadline (shared deadlines would make the duplicate invisible
     to reordering-sensitive code paths), stay within the rule's bound,
     and replay bit-identically from the seed. *)
  let mk () =
    Faults.create ~seed:11
      [ Faults.rule Faults.Duplicate; Faults.rule delay_05 ]
  in
  let probe plan i =
    Faults.deliveries plan ~dir:Faults.From_server ~server:(i mod 4)
      ~client:(4 + (i mod 3)) ~rt:(i / 3) ~salt:0
  in
  let ds = List.init 200 (probe (mk ())) in
  check bool "every frame staged twice" true
    (List.for_all (fun d -> List.length d = 2) ds);
  check bool "deadlines within the delay bound" true
    (List.for_all
       (List.for_all (fun d -> d >= 0.0 && d <= 0.05))
       ds);
  check bool "copies draw independent deadlines" true
    (List.exists
       (function
         | [ a; b ] -> a <> b
         | [] | [ _ ] | _ :: _ :: _ -> false)
       ds);
  check bool "replay is deterministic" true (ds = List.init 200 (probe (mk ())))

let staged_deliveries_prop =
  (* The determinism contract extended to staged (delayed + duplicated)
     deliveries: any (seed, link, rt) replays the same schedule on a
     fresh plan, both directions, every copy within bounds. *)
  QCheck.Test.make ~count:200 ~name:"staged deliveries replay deterministically"
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (seed, server, client, rt) ->
      let mk () =
        Faults.create ~seed
          [ Faults.rule Faults.Duplicate; Faults.rule delay_05 ]
      in
      let p1 = mk () and p2 = mk () in
      List.for_all
        (fun dir ->
          let d1 = Faults.deliveries p1 ~dir ~server ~client ~rt ~salt:0 in
          let d2 = Faults.deliveries p2 ~dir ~server ~client ~rt ~salt:0 in
          d1 = d2
          && List.length d1 = 2
          && List.for_all (fun d -> d >= 0.0 && d <= 0.05) d1)
        [ Faults.To_server; Faults.From_server ])

(* The rule walk [Faults.deliveries] is specified by, over plain rule
   data and an explicit window clock [e]: every rule a linear scan,
   every server and client set a list search.  Its hash is the plan's
   documented per-frame mix, so the two must agree bit for bit. *)
type spec_rule =
  | S_frame of {
      kind : Faults.kind;
      prob : float;
      dir : Faults.dir option;
      servers : int list;
      clients : int list;
      from_s : float;
      until_s : float;
    }
  | S_partition of { groups : int list list; from_s : float; until_s : float }

let spec_deliveries ~seed rules ~e ~dir ~server ~client ~rt ~salt =
  let mix h k =
    let h = (h lxor k) * 0x2545F4914F6CDD1D in
    let h = h lxor (h lsr 29) in
    let h = h * 0x27220A95 in
    h lxor (h lsr 32)
  in
  let draw i j =
    let d = match dir with Faults.To_server -> 1 | Faults.From_server -> 2 in
    let h = mix (seed + 0x51ED) ((i * 8) + d) in
    let h = mix (mix (mix (mix h server) client) rt) ((salt * 16) + j) in
    float_of_int (h land 0x3FFFFFFF) /. 1073741824.0
  in
  let mem_or_all l x = l = [] || List.mem x l in
  let group_of groups x =
    let rec go i = function
      | [] -> None
      | g :: rest -> if List.mem x g then Some i else go (i + 1) rest
    in
    go 0 groups
  in
  let blocked =
    List.exists
      (function
        | S_partition { groups; from_s; until_s } -> (
          e >= from_s && e < until_s
          &&
          match (group_of groups server, group_of groups client) with
          | Some a, Some b -> a <> b
          | _ -> false)
        | S_frame _ -> false)
      rules
  in
  if blocked then []
  else begin
    let ds = ref [ 0.0 ] in
    List.iteri
      (fun i -> function
        | S_partition _ -> ()
        | S_frame r ->
          if
            !ds <> []
            && (match r.dir with None -> true | Some d -> d = dir)
            && mem_or_all r.servers server && mem_or_all r.clients client
            && e >= r.from_s && e < r.until_s
            && (r.prob >= 1.0 || draw i 0 < r.prob)
          then
            match r.kind with
            | Faults.Drop -> ds := []
            | Faults.Latency { base; jitter } ->
              ds :=
                List.mapi
                  (fun ci after ->
                    after +. base
                    +. if jitter > 0.0 then jitter *. draw i (1 + ci) else 0.0)
                  !ds
            | Faults.Duplicate -> ds := !ds @ [ 0.0 ])
      rules;
    !ds
  end

let to_rule = function
  | S_frame { kind; prob; dir; servers; clients; from_s; until_s } ->
    Faults.rule ?dir ~servers ~clients ~from_:from_s ~until:until_s ~prob kind
  | S_partition { groups; from_s; until_s } ->
    Faults.partition ~from_:from_s ~until:until_s groups

let faults_spec_prop =
  (* Plans over servers 0-4 and clients 5-12 (probed up to 13, which no
     rule names) mixing partitions, windows,
     drops, duplicates and latencies: every frame's fate matches the
     spec walk.  Window edges sit at 0 and 1000 s, so the plan's own
     clock (milliseconds since [arm]) and the spec's [e = 1] fall in
     the same windows. *)
  let gen =
    let open QCheck.Gen in
    let subset lo hi =
      list_size (int_range 0 3) (int_range lo hi) >|= List.sort_uniq compare
    in
    let window =
      oneofl
        [ (0.0, infinity); (-1.0, infinity); (0.0, 1000.0); (1000.0, infinity);
          (0.0, 0.0) ]
    in
    let kind =
      oneofl
        [
          Faults.Drop;
          Faults.Duplicate;
          Faults.Latency { base = 0.01; jitter = 0.02 };
          Faults.Latency { base = 0.0; jitter = 0.02 };
          Faults.Latency { base = 0.01; jitter = 0.0 };
        ]
    in
    let frame =
      kind >>= fun kind ->
      oneofl [ 0.3; 0.7; 1.0 ] >>= fun prob ->
      opt (oneofl [ Faults.To_server; Faults.From_server ]) >>= fun dir ->
      subset 0 4 >>= fun servers ->
      subset 5 12 >>= fun clients ->
      window >|= fun (from_s, until_s) ->
      S_frame { kind; prob; dir; servers; clients; from_s; until_s }
    in
    let part =
      list_size (int_range 1 3) (subset 0 12) >>= fun groups ->
      window >|= fun (from_s, until_s) -> S_partition { groups; from_s; until_s }
    in
    pair small_nat (list_size (int_range 0 6) (frequency [ (4, frame); (1, part) ]))
  in
  QCheck.Test.make ~count:300 ~name:"fault decisions match the spec walk"
    (QCheck.make gen)
    (fun (seed, rules) ->
      let plan = Faults.create ~seed (List.map to_rule rules) in
      Faults.arm plan;
      List.for_all
        (fun (server, client, rt, salt, dir) ->
          Faults.deliveries plan ~dir ~server ~client ~rt ~salt
          = spec_deliveries ~seed rules ~e:1.0 ~dir ~server ~client ~rt ~salt)
        (List.init 200 (fun k ->
             ( k mod 5,
               5 + (k / 5 mod 9),
               k / 40,
               k mod 3,
               if k mod 2 = 0 then Faults.To_server else Faults.From_server ))))

let test_mux_hol_isolation () =
  (* Head-of-line regression: a staged (delayed) frame of one mux client
     must wait in the mux's deadline heap, not sleep in the sender with
     the connection lock held.  Client 100's 0.4s-delayed
     op rides out its deadline while client 101 pushes ten ops through
     the same connection at full speed. *)
  let server = Server.start ~id:0 () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let faults =
    Faults.create
      [
        Faults.rule ~dir:Faults.To_server ~clients:[ 100 ]
          (Faults.Latency { base = 0.4; jitter = 0.0 });
      ]
  in
  let mux = Mux.create ~faults ~servers:[| addr |] ~quorum:1 () in
  let slow = Mux.client mux ~client:100 in
  let fast = Mux.client mux ~client:101 in
  let slow_elapsed = ref 0.0 in
  let t =
    Thread.create
      (fun () ->
        let t0 = Clock.now () in
        Mux.exec ~key slow (Wire.Update (value 1 0 1)) (fun _ -> ());
        slow_elapsed := Clock.now () -. t0)
      ()
  in
  Thread.delay 0.05;
  (* The slow op is now parked; the fast client must not feel it. *)
  let t0 = Clock.now () in
  for n = 1 to 10 do
    Mux.exec ~key fast (Wire.Update (value (1000 + n) 1 n)) (fun _ -> ())
  done;
  let fast_elapsed = Clock.now () -. t0 in
  Thread.join t;
  check bool "fast client unaffected by the parked frame" true
    (fast_elapsed < 0.2);
  check bool "slow client actually delayed" true (!slow_elapsed >= 0.3);
  Mux.release slow;
  Mux.release fast;
  Mux.shutdown mux;
  Server.stop server

let test_mux_hol_across_servers () =
  (* The fan-out half of the same regression: a delay on the link to
     server 0 must not push back the send time to servers 1 and 2 — the
     quorum completes on the undelayed majority in wire time. *)
  let servers = Array.init 3 (fun i -> Server.start ~id:i ()) in
  let addrs =
    Array.map
      (fun s -> Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port s))
      servers
  in
  let faults =
    Faults.create
      [
        Faults.rule ~dir:Faults.To_server ~servers:[ 0 ]
          (Faults.Latency { base = 0.4; jitter = 0.0 });
      ]
  in
  let mux = Mux.create ~faults ~servers:addrs ~quorum:2 () in
  let ep = Mux.client mux ~client:42 in
  let t0 = Clock.now () in
  let got = ref [] in
  Mux.exec ~key ep (Wire.Update (value 1 0 7)) (fun rs ->
      got := List.map fst rs);
  let elapsed = Clock.now () -. t0 in
  check bool "quorum from the undelayed servers" true
    (List.sort compare !got = [ 1; 2 ]);
  check bool "delay on server 0 does not block sends to 1,2" true
    (elapsed < 0.2);
  Mux.shutdown mux;
  Array.iter Server.stop servers

let test_mux_due_copies_one_write () =
  (* Duplicate + constant latency on the request leg: both copies of
     each round's request are staged with one deadline, and the loop
     releases them in one write — R rounds cost exactly R writes.  With
     no plan, each round's one copy is due at once and the loop writes
     it: R writes again.  The scripted server answers with blocking
     writes, so every non-blocking write counted is the mux's. *)
  let run what faults =
    let addr, stop = echo_server () in
    let mux = Mux.create ?faults ~servers:[| addr |] ~quorum:1 () in
    let ep = Mux.client mux ~client:90 in
    let rounds = 10 in
    let before = Netio.counts () in
    for _ = 1 to rounds do
      Mux.exec ~key ep (Wire.Query []) (fun _ -> ())
    done;
    let after = Netio.counts () in
    Mux.shutdown mux;
    stop ();
    check int
      (what ^ ": one client write per round")
      rounds
      (after.Netio.writes_nb - before.Netio.writes_nb)
  in
  run "duplicate + latency"
    (Some
       (Faults.create
          [
            Faults.rule ~dir:Faults.To_server Faults.Duplicate;
            Faults.rule ~dir:Faults.To_server
              (Faults.Latency { base = 0.02; jitter = 0.0 });
          ]));
  run "no plan" None

let test_mux_fanout_one_notify () =
  (* Each link's request is due earlier than the previous link's (3, 2,
     1 ms), so waking the loop per staged frame would write its pipe
     once per link; a fan-out stages all three and writes it at most
     once.  With no plan all three copies are due at once: one wake-up
     again, never one per link. *)
  let run what faults =
    let servers = Array.init 3 (fun i -> Server.start ~id:i ()) in
    let addrs =
      Array.map
        (fun s -> Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port s))
        servers
    in
    let mux = Mux.create ?faults ~servers:addrs ~quorum:3 () in
    let ep = Mux.client mux ~client:91 in
    Mux.exec ~key ep (Wire.Query []) (fun _ -> ());
    let rounds = 30 in
    let before = Netio.counts () in
    for _ = 1 to rounds do
      Mux.exec ~key ep (Wire.Query []) (fun _ -> ())
    done;
    let after = Netio.counts () in
    Mux.shutdown mux;
    Array.iter Server.stop servers;
    let n = after.Netio.notifies - before.Netio.notifies in
    check bool
      (Printf.sprintf "%s: %d wake-pipe writes over %d rounds <= %d" what n
         rounds rounds)
      true (n <= rounds)
  in
  run "staggered latency"
    (Some
       (Faults.create
          (List.mapi
             (fun i base ->
               Faults.rule ~dir:Faults.To_server ~servers:[ i ]
                 (Faults.Latency { base; jitter = 0.0 }))
             [ 0.003; 0.002; 0.001 ])));
  run "no plan" None

let test_mux_held_reply_dies_with_link () =
  (* A held reply belongs to the connection it arrived on.  Client 70's
     replies are held 0.2 s; its server crashes while one is held and
     comes back on the same port.  The held reply must die with the
     link: client 70's round completes only through its re-broadcast,
     never early on the dead connection's reply, and client 71 gets
     its own reply over the new connection. *)
  let faults =
    Faults.create
      [
        Faults.rule ~dir:Faults.From_server ~clients:[ 70 ]
          (Faults.Latency { base = 0.2; jitter = 0.0 });
      ]
  in
  let server = Server.start ~id:0 () in
  let port = Server.port server in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let mux = Mux.create ~rt_timeout:0.5 ~faults ~servers:[| addr |] ~quorum:1 () in
  let a = Mux.client mux ~client:70 and b = Mux.client mux ~client:71 in
  let a_elapsed = ref 0.0 in
  let ta =
    Thread.create
      (fun () ->
        let t0 = Clock.now () in
        Mux.exec ~key a (Wire.Query []) (fun _ -> ());
        a_elapsed := Clock.now () -. t0)
      ()
  in
  Thread.delay 0.05;
  Server.stop server;
  let rec restart n =
    match Server.start ~port ~id:0 () with
    | sv -> sv
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when n > 0 ->
      Thread.delay 0.05;
      restart (n - 1)
  in
  let server = restart 40 in
  let got = ref [] in
  Mux.exec ~key b (Wire.Query []) (fun rs -> got := List.map fst rs);
  Thread.join ta;
  Mux.shutdown mux;
  Server.stop server;
  check (Alcotest.list int) "client 71 answered over the new link" [ 0 ] !got;
  check int "client 70 needed its re-broadcast" 1 (Mux.retries a);
  check bool
    (Printf.sprintf "client 70 took %.0f ms >= 500 ms" (!a_elapsed *. 1e3))
    true (!a_elapsed >= 0.5);
  check int "the held reply was never routed" 0 (Mux.late_replies a);
  check int "nothing misrouted" 0 (Mux.dropped_replies mux)

let test_mux_staged_request_dies_with_link () =
  (* The request-leg twin: a staged request belongs to the connection
     it was staged on.  Client 80's requests wait 0.2 s in the mux; its
     server crashes while one waits and comes back on the same port.
     The staged request must die with the link, not leave on the
     redialed one: client 80's round completes only through its
     re-broadcast (0.5 s timeout, then the retry's own 0.2 s), and
     client 81 gets its own reply over the new connection. *)
  let faults =
    Faults.create
      [
        Faults.rule ~dir:Faults.To_server ~clients:[ 80 ]
          (Faults.Latency { base = 0.2; jitter = 0.0 });
      ]
  in
  let server = Server.start ~id:0 () in
  let port = Server.port server in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let mux = Mux.create ~rt_timeout:0.5 ~faults ~servers:[| addr |] ~quorum:1 () in
  let a = Mux.client mux ~client:80 and b = Mux.client mux ~client:81 in
  let a_elapsed = ref 0.0 in
  let ta =
    Thread.create
      (fun () ->
        let t0 = Clock.now () in
        Mux.exec ~key a (Wire.Query []) (fun _ -> ());
        a_elapsed := Clock.now () -. t0)
      ()
  in
  Thread.delay 0.05;
  Server.stop server;
  let rec restart n =
    match Server.start ~port ~id:0 () with
    | sv -> sv
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when n > 0 ->
      Thread.delay 0.05;
      restart (n - 1)
  in
  let server = restart 40 in
  let got = ref [] in
  Mux.exec ~key b (Wire.Query []) (fun rs -> got := List.map fst rs);
  Thread.join ta;
  Mux.shutdown mux;
  Server.stop server;
  check (Alcotest.list int) "client 81 answered over the new link" [ 0 ] !got;
  check int "client 80 needed its re-broadcast" 1 (Mux.retries a);
  check bool
    (Printf.sprintf "client 80 took %.0f ms >= 700 ms" (!a_elapsed *. 1e3))
    true (!a_elapsed >= 0.7);
  check int "the staged request was never answered" 0 (Mux.late_replies a);
  check int "nothing misrouted" 0 (Mux.dropped_replies mux)

let test_mux_due_replies_one_wakeup () =
  (* 64 replies read in one batch under a constant 20 ms reply delay
     share one deadline: the loop routes them all at one wake-up, in
     the order they were written.  The scripted server collects all 64
     requests, then answers them in one write. *)
  let faults =
    Faults.create
      [
        Faults.rule ~dir:Faults.From_server
          (Faults.Latency { base = 0.02; jitter = 0.0 });
      ]
  in
  let n = 64 in
  let written = ref [] in
  let addr, stop =
    scripted_server (fun fd ->
        let st = Codec.Stream.create () and buf = Bytes.create 65536 in
        let reqs = List.init n (fun _ -> next_request fd st buf) in
        written := List.map (fun (_, _, client) -> client) reqs;
        raw_send fd
          (String.concat ""
             (List.map (fun (key, rt, client) -> ack_frame ~key ~rt ~client) reqs));
        (* Hold the connection until the mux hangs up. *)
        ignore (next_request fd st buf))
  in
  let mux = Mux.create ~faults ~servers:[| addr |] ~quorum:1 () in
  let routed = ref [] in
  let threads =
    List.init n (fun i ->
        let h = Mux.client mux ~client:(200 + i) in
        Thread.create
          (fun () ->
            Mux.exec ~key h (Wire.Query []) (fun _ ->
                routed := (200 + i, (Netio.counts ()).Netio.waits) :: !routed))
          ())
  in
  List.iter Thread.join threads;
  Mux.shutdown mux;
  stop ();
  let routed = List.rev !routed in
  check (Alcotest.list int) "routed in the order written" !written
    (List.map fst routed);
  check int "all routed at one wake-up" 1
    (List.length (List.sort_uniq compare (List.map snd routed)))

let test_mux_continuation_off_caller () =
  (* A two-round operation: its first continuation runs on the loop,
     not on the caller, opens the second round from there, and the
     outer call returns only once the second continuation has run. *)
  let server = Server.start ~id:0 () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let mux = Mux.create ~servers:[| addr |] ~quorum:1 () in
  let h = Mux.client mux ~client:12 in
  let caller = Thread.id (Thread.self ()) in
  let first = ref caller and second = ref None in
  Mux.exec ~key h (Wire.Query []) (fun _ ->
      first := Thread.id (Thread.self ());
      Mux.exec ~key h (Wire.Update (value 1 0 1)) (fun _ ->
          second := Some (Thread.id (Thread.self ()))));
  Mux.shutdown mux;
  Server.stop server;
  check bool "first continuation off the caller's thread" true (!first <> caller);
  check bool "second continuation ran before exec returned" true
    (!second = Some !first);
  check int "two rounds" 2 (Mux.rounds_completed h)

exception Boom of int

let test_mux_continuation_exn () =
  (* An exception raised in a continuation — of the first round or of a
     nested one, or by a nested [exec] whose request cannot be encoded —
     reaches the caller, and the handle runs on. *)
  let server = Server.start ~id:0 () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let mux = Mux.create ~servers:[| addr |] ~quorum:1 () in
  let h = Mux.client mux ~client:13 in
  let raised f = match f () with () -> None | exception Boom n -> Some n in
  let r1 = raised (fun () -> Mux.exec ~key h (Wire.Query []) (fun _ -> raise (Boom 1))) in
  let r2 =
    raised (fun () ->
        Mux.exec ~key h (Wire.Query []) (fun _ ->
            Mux.exec ~key h (Wire.Query []) (fun _ -> raise (Boom 2))))
  in
  let long_key = String.make (Codec.max_key_len + 1) 'k' in
  let r3 =
    match
      Mux.exec ~key h (Wire.Query []) (fun _ ->
          Mux.exec ~key:long_key h (Wire.Query []) (fun _ -> ()))
    with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  let ok = ref false in
  Mux.exec ~key h (Wire.Query []) (fun _ -> ok := true);
  Mux.shutdown mux;
  Server.stop server;
  check (Alcotest.option int) "first-round exception" (Some 1) r1;
  check (Alcotest.option int) "nested-round exception" (Some 2) r2;
  check bool "a nested exec's encoding failure" true r3;
  check bool "the handle runs on" true !ok

let test_loop_self_wait_raises () =
  (* [Mux.shutdown] and [Server.stop] wait for the loop's
     acknowledgement, and an operation on another handle waits for its
     own continuations, so called from a continuation, on the loop's
     own thread, each would wait for itself: each raises
     [Invalid_argument] naming the call instead, and the outer [exec]
     re-raises it.  The mux and the server run on. *)
  let server = Server.start ~id:0 () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let mux = Mux.create ~servers:[| addr |] ~quorum:1 () in
  let h = Mux.client mux ~client:14 in
  let raised f =
    match Mux.exec ~key h (Wire.Query []) (fun _ -> f ()) with
    | () -> "no exception"
    | exception Invalid_argument msg -> msg
  in
  let in_shutdown = raised (fun () -> Mux.shutdown mux) in
  let in_stop = raised (fun () -> Server.stop server) in
  let other = Mux.client mux ~client:15 in
  let in_exec =
    raised (fun () -> Mux.exec ~key other (Wire.Query []) (fun _ -> ()))
  in
  let ok = ref false in
  Mux.exec ~key h (Wire.Query []) (fun _ -> ok := true);
  Mux.shutdown mux;
  Server.stop server;
  let names who msg = String.starts_with ~prefix:(who ^ ":") msg in
  check bool ("Mux.shutdown in a continuation: " ^ in_shutdown) true
    (names "Mux.shutdown" in_shutdown);
  check bool ("Server.stop in a continuation: " ^ in_stop) true
    (names "Server.stop" in_stop);
  check bool ("Mux.exec on another handle in a continuation: " ^ in_exec)
    true (names "Mux.exec" in_exec);
  check bool "the mux and the server run on" true !ok

let test_mux_unavailable_then_late () =
  (* A round that exhausts its retries raises [Unavailable] on the
     caller; the reply the server sends afterwards counts as late. *)
  let answer = Atomic.make false in
  let addr, stop =
    scripted_server (fun fd ->
        let st = Codec.Stream.create () and buf = Bytes.create 65536 in
        let key, rt, client = next_request fd st buf in
        while not (Atomic.get answer) do
          Thread.delay 0.005
        done;
        raw_send fd (ack_frame ~key ~rt ~client);
        (* Hold the connection until the mux hangs up. *)
        while true do
          ignore (next_request fd st buf)
        done)
  in
  let mux =
    Mux.create ~rt_timeout:0.05 ~max_rt_retries:1 ~servers:[| addr |] ~quorum:1
      ()
  in
  let h = Mux.client mux ~client:14 in
  let unavailable =
    match Mux.exec ~key h (Wire.Query []) (fun _ -> ()) with
    | () -> false
    | exception Mux.Unavailable _ -> true
  in
  Atomic.set answer true;
  let deadline = Clock.now () +. 2.0 in
  while Mux.late_replies h = 0 && Clock.now () < deadline do
    Thread.delay 0.005
  done;
  let late = Mux.late_replies h in
  Mux.shutdown mux;
  stop ();
  check bool "Unavailable raised on the caller" true unavailable;
  check int "one re-broadcast" 1 (Mux.retries h);
  check int "the reply after the give-up is late" 1 late

let test_mux_stalled_server () =
  (* Server 2 accepts and never reads, with a 4 KiB receive buffer.
     Once the kernel's buffers for its link are full, the link must
     neither block the loop nor any client: every round completes on
     servers 0 and 1.  The rounds push more at the stalled link than
     its out-queue ceiling (4 MiB) and the largest send buffer the
     kernel grows (4 MiB, Linux's default tcp_wmem maximum) together
     hold, so the loop's drop of due requests past the ceiling runs. *)
  let servers = Array.init 2 (fun i -> Server.start ~id:i ()) in
  let release = Atomic.make false in
  let stalled, stop =
    scripted_server ~rcvbuf:4096 (fun _ ->
        while not (Atomic.get release) do
          Thread.delay 0.01
        done)
  in
  let addrs =
    [|
      Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port servers.(0));
      Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port servers.(1));
      stalled;
    |]
  in
  let mux = Mux.create ~servers:addrs ~quorum:2 () in
  let h = Mux.client mux ~client:15 in
  (* ~1 KiB requests: 10 000 rounds push ~10.5 MB at the stalled
     link. *)
  let key = String.make Codec.max_key_len 'k' in
  let rounds = 10_000 and done_ = ref 0 in
  let t0 = Clock.now () in
  for _ = 1 to rounds do
    Mux.exec ~key h (Wire.Query []) (fun rs ->
        if List.sort compare (List.map fst rs) = [ 0; 1 ] then incr done_)
  done;
  let elapsed = Clock.now () -. t0 in
  Atomic.set release true;
  Mux.shutdown mux;
  stop ();
  Array.iter Server.stop servers;
  check int "every round completed on the reading servers" rounds !done_;
  check int "no round timed out" 0 (Mux.retries h);
  check bool (Printf.sprintf "%d rounds in %.2f s < 20 s" rounds elapsed) true
    (elapsed < 20.0)

let test_mux_reply_salts_ignore_interleaving () =
  (* The reply leg's decisions are salted by each reply's arrival index
     for its (client, round, server), so the same seed drops the same
     replies whether four clients run one after another or all at once
     on the shared connection: every client needs the same
     re-broadcasts in both runs. *)
  let run concurrent =
    let server = Server.start ~id:0 () in
    let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
    let faults =
      Faults.create ~seed:5
        [ Faults.rule ~dir:Faults.From_server ~prob:0.3 Faults.Drop ]
    in
    let mux =
      Mux.create ~rt_timeout:0.1 ~max_rt_retries:20 ~faults ~servers:[| addr |]
        ~quorum:1 ()
    in
    let hs = Array.init 4 (fun c -> Mux.client mux ~client:(20 + c)) in
    let body h () =
      for _ = 1 to 8 do
        Mux.exec ~key h (Wire.Query []) (fun _ -> ())
      done
    in
    if concurrent then
      List.iter Thread.join
        (Array.to_list (Array.map (fun h -> Thread.create (body h) ()) hs))
    else Array.iter (fun h -> body h ()) hs;
    let retries = Array.map Mux.retries hs in
    Mux.shutdown mux;
    Server.stop server;
    retries
  in
  let one_by_one = run false in
  let at_once = run true in
  check bool "the plan drops some replies" true
    (Array.fold_left ( + ) 0 one_by_one > 0);
  check (Alcotest.array int) "same re-broadcasts per client" one_by_one at_once

(* ------------------------------------------------------------------ *)
(* Timer resolution and the loop's lifecycle                          *)
(* ------------------------------------------------------------------ *)

(* Timing assertions take the median of many samples: a busy host can
   stretch any one of them, not half of them. *)
let median_of n f =
  let a = Array.init n (fun _ -> f ()) in
  Array.sort Float.compare a;
  a.(n / 2)

(* The median of [n] idle 0.3 ms waits in a fresh poller watching one
   quiet pipe, in seconds. *)
let idle_wait_median n =
  let p = Netio.Poller.create () in
  let r, w = Unix.pipe ~cloexec:true () in
  Netio.Poller.add p r ~want_write:false;
  let m =
    median_of n (fun () ->
        let t0 = Clock.now () in
        ignore
          (Netio.Poller.wait p ~timeout:0.0003 (fun _ ~readable:_ ~writable:_ ->
               ()));
        Clock.now () -. t0)
  in
  Netio.Poller.remove p r;
  Netio.Poller.close p;
  Unix.close r;
  Unix.close w;
  m

let test_poller_sub_ms_timeout () =
  (* An idle epoll wait returns at its deadline, not at the next whole
     millisecond: the reactor's delayed replies are scheduled by this
     timeout. *)
  let m = idle_wait_median 40 in
  check bool (Printf.sprintf "median wait %.3f ms >= 0.3 ms" (m *. 1e3)) true
    (m >= 0.00029);
  check bool (Printf.sprintf "median wait %.3f ms < 0.9 ms" (m *. 1e3)) true
    (m < 0.0009)

let test_poller_oversleep () =
  (* A thread waiting in the poller runs with 1 ns timer slack, so an
     idle 0.3 ms wait oversleeps by microseconds, not by the kernel's
     default 50 us: on the calling thread, on a [Thread.create]d one
     and on a spawned domain, where the event loop runs: the slack is
     per OS thread, set on each thread's first wait. *)
  let oversleep () = idle_wait_median 200 -. 0.0003 in
  let caller = oversleep () in
  (* Without epoll_pwait2 waits round up to whole milliseconds. *)
  if caller +. 0.0003 >= 0.001 then Alcotest.skip ();
  let thread =
    let m = ref nan in
    Thread.join (Thread.create (fun () -> m := oversleep ()) ());
    !m
  in
  let domain = Domain.join (Domain.spawn oversleep) in
  List.iter
    (fun (where, m) ->
      check bool
        (Printf.sprintf "%s: median oversleep %.1f us < 40 us" where (m *. 1e6))
        true (m < 40e-6))
    [ ("calling thread", caller); ("thread", thread); ("domain", domain) ]

let test_mux_sub_ms_round_trip () =
  (* 0.3 ms on each leg, both realised by the mux: the request and then
     the reply wait in the loop's deadline heap.  Both must fire at
     their deadline for the round trip to stay near its
     0.6 ms nominal. *)
  let faults =
    Faults.create [ Faults.rule (Faults.Latency { base = 0.0003; jitter = 0.0 }) ]
  in
  let server = Server.start ~id:0 () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let mux = Mux.create ~faults ~servers:[| addr |] ~quorum:1 () in
  let ep = Mux.client mux ~client:10 in
  Mux.exec ~key ep (Wire.Update (value 1 0 1)) (fun _ -> ());
  let m =
    median_of 40 (fun () ->
        let t0 = Clock.now () in
        Mux.exec ~key ep (Wire.Query []) (fun _ -> ());
        Clock.now () -. t0)
  in
  Mux.shutdown mux;
  Server.stop server;
  check bool (Printf.sprintf "median round trip %.3f ms >= 0.6 ms" (m *. 1e3))
    true (m >= 0.00059);
  check bool (Printf.sprintf "median round trip %.3f ms < 1.5 ms" (m *. 1e3))
    true (m < 0.0015)

let test_mux_reply_leg_delays () =
  (* A [From_server]-only plan against a server that realises nothing:
     the mux holds the reply, so the round trip cannot beat the reply
     leg's 50 ms. *)
  let faults =
    Faults.create
      [
        Faults.rule ~dir:Faults.From_server
          (Faults.Latency { base = 0.05; jitter = 0.0 });
      ]
  in
  let server = Server.start ~id:0 () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let mux = Mux.create ~faults ~servers:[| addr |] ~quorum:1 () in
  let ep = Mux.client mux ~client:11 in
  let t0 = Clock.now () in
  Mux.exec ~key ep (Wire.Query []) (fun _ -> ());
  let elapsed = Clock.now () -. t0 in
  Mux.shutdown mux;
  Server.stop server;
  check bool (Printf.sprintf "round trip %.1f ms >= 50 ms" (elapsed *. 1e3))
    true (elapsed >= 0.05);
  check bool (Printf.sprintf "round trip %.1f ms < 500 ms" (elapsed *. 1e3))
    true (elapsed < 0.5)

(* [cycle] once to warm up (the event loop's domain and its threads
   start once per process, with the first server), then [n] times more: the
   process must hold as many descriptors and threads as after the
   warm-up.  [settle] waits out what closes asynchronously. *)
let leaks_nothing ~what ~n ~settle cycle =
  let count dir = Array.length (Sys.readdir dir) in
  cycle ();
  settle ();
  (* A finished thread leaves /proc/self/task a moment after it
     returns. *)
  Thread.delay 0.05;
  let fds = count "/proc/self/fd" and tasks = count "/proc/self/task" in
  for _ = 1 to n do
    cycle ()
  done;
  settle ();
  let deadline = Clock.now () +. 2.0 in
  while count "/proc/self/task" > tasks && Clock.now () < deadline do
    Thread.delay 0.001
  done;
  check int (Printf.sprintf "%s: descriptors after %d cycles" what n) fds
    (count "/proc/self/fd");
  check int (Printf.sprintf "%s: threads after %d cycles" what n) tasks
    (count "/proc/self/task")

let test_mux_lifecycle () =
  (* create/shutdown leaks no descriptor (the connections) and no
     thread, and shutdown wakes the sleeping loop through its pipe
     instead of waiting out its 50 ms timeout scan.  The same holds for
     a cluster's start, kill, restart and shutdown: every server,
     restarted ones included, runs on the process's one event loop,
     and each restarted server binds its old port. *)
  if not (Sys.file_exists "/proc/self/task") then Alcotest.skip ();
  let server = Server.start ~id:0 () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let settle () =
    (* The server closes its side of each connection asynchronously. *)
    let deadline = Clock.now () +. 2.0 in
    while Server.connection_count server > 0 && Clock.now () < deadline do
      Thread.delay 0.001
    done
  in
  let times = ref [] in
  let mux_cycle () =
    let mux = Mux.create ~servers:[| addr |] ~quorum:1 () in
    let ep = Mux.client mux ~client:10 in
    Mux.exec ~key ep (Wire.Query []) (fun _ -> ());
    (* Let the loop reach its sleep. *)
    Thread.delay 0.002;
    let t0 = Clock.now () in
    Mux.shutdown mux;
    times := (Clock.now () -. t0) :: !times
  in
  let cluster_cycle () =
    let cl = Cluster.start ~s:3 ~tol:1 () in
    Cluster.kill cl 0;
    Cluster.restart cl 0;
    (* Quorum 3 over the addresses [start] bound: the round trip needs
       the restarted server, answering on its old port. *)
    let mux = Mux.create ~servers:(Cluster.addrs cl) ~quorum:3 () in
    Mux.exec ~key (Mux.client mux ~client:10) (Wire.Query []) (fun _ -> ());
    Mux.shutdown mux;
    Cluster.shutdown cl
  in
  leaks_nothing ~what:"mux" ~n:20 ~settle mux_cycle;
  (* One loop thread serves every server and every mux of the process:
     with one server and its mux up, a second cluster (S = 7) and two
     more muxes over it add no thread. *)
  let tasks () = Array.length (Sys.readdir "/proc/self/task") in
  let first = Mux.create ~servers:[| addr |] ~quorum:1 () in
  Mux.exec ~key (Mux.client first ~client:20) (Wire.Query []) (fun _ -> ());
  let before = tasks () in
  let cl = Cluster.start ~s:7 ~tol:3 () in
  let more =
    List.map
      (fun quorum -> Mux.create ~servers:(Cluster.addrs cl) ~quorum ())
      [ 4; 7 ]
  in
  List.iteri
    (fun i m ->
      Mux.exec ~key (Mux.client m ~client:(21 + i)) (Wire.Query []) (fun _ ->
          ()))
    more;
  let after = tasks () in
  List.iter Mux.shutdown (first :: more);
  Cluster.shutdown cl;
  check int "threads with a second cluster (S = 7) and two more muxes" before
    after;
  Server.stop server;
  leaks_nothing ~what:"cluster" ~n:50 ~settle:ignore cluster_cycle;
  (* The warm-up cycle's shutdown is not timed. *)
  let worst = List.fold_left Float.max 0.0 (List.tl (List.rev !times)) in
  check bool
    (Printf.sprintf "slowest shutdown %.2f ms < 25 ms (half a tick)"
       (worst *. 1e3))
    true (worst < 0.025)

let test_mux_redials_long_restart () =
  (* A server that stays down past the reconnect backoff's ramp must
     still be redialed once it is restarted.  S=3 t=1: server 2 stays
     down through 7 s of writes, comes back, then server 0 dies — the
     next write's quorum {1, 2} needs the redialed link. *)
  let cluster = Cluster.start ~s:3 ~tol:1 () in
  Fun.protect
    ~finally:(fun () -> Cluster.shutdown cluster)
    (fun () ->
      let mux =
        Mux.create ~servers:(Cluster.addrs cluster)
          ~quorum:(Cluster.quorum cluster) ()
      in
      Fun.protect
        ~finally:(fun () -> Mux.shutdown mux)
        (fun () ->
          let ep = Mux.client mux ~client:3 in
          let n = ref 0 in
          let write () =
            incr n;
            Mux.exec ~key ep (Wire.Update (value !n 0 !n)) (fun _ -> ())
          in
          write ();
          Cluster.kill cluster 2;
          let until = Clock.now () +. 7.0 in
          while Clock.now () < until do
            write ();
            Thread.delay 0.01
          done;
          Cluster.restart cluster 2;
          Cluster.kill cluster 0;
          match write () with
          | () -> ()
          | exception Mux.Unavailable msg ->
            Alcotest.failf "restarted server was never redialed: %s" msg))

(* ------------------------------------------------------------------ *)
(* Geo profiles: one geography, two compilations                        *)
(* ------------------------------------------------------------------ *)

let test_geo_compilations_agree () =
  (* Every profile's two compilations — the simulator's latency model
     and the live fault rules — must place each (src, dst) delay in the
     same [base, base + jitter) band read off the same matrices. *)
  List.iter
    (fun p ->
      let s = 4 in
      let clients = [ 4; 5; 6 ] in
      let plan = Geo.plan p ~s ~clients in
      let model = Geo.latency_model p in
      let rng = Simulation.Rng.create ~seed:9 in
      let band ~src ~dst d what =
        let base = Geo.base p ~src ~dst in
        let j = Geo.jitter_bound p ~src ~dst in
        check bool
          (Printf.sprintf "%s %s %d->%d in band" (Geo.name p) what src dst)
          true
          (d >= base && d < base +. j)
      in
      List.iter
        (fun c ->
          for srv = 0 to s - 1 do
            (match
               Faults.deliveries plan ~dir:Faults.To_server ~server:srv
                 ~client:c ~rt:1 ~salt:0
             with
            | [ d ] -> band ~src:c ~dst:srv d "request leg"
            | [] | _ :: _ ->
              Alcotest.fail "geo rule must stage exactly one copy");
            (match
               Faults.deliveries plan ~dir:Faults.From_server ~server:srv
                 ~client:c ~rt:1 ~salt:0
             with
            | [ d ] -> band ~src:srv ~dst:c d "reply leg"
            | [] | _ :: _ ->
              Alcotest.fail "geo rule must stage exactly one copy");
            for _ = 1 to 10 do
              band ~src:c ~dst:srv
                (Simulation.Latency.sample model rng ~src:c ~dst:srv)
                "sim sample"
            done
          done)
        clients)
    Geo.profiles

let geo_symmetry_prop =
  (* The symmetric profiles must cost the same in both directions for
     any node pair; asym-updown must not whenever the pair crosses the
     edge/core boundary. *)
  QCheck.Test.make ~count:200 ~name:"geo profile (a)symmetry"
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let sym p =
        Geo.base p ~src:a ~dst:b = Geo.base p ~src:b ~dst:a
        && Geo.jitter_bound p ~src:a ~dst:b = Geo.jitter_bound p ~src:b ~dst:a
      in
      let cross =
        Geo.region_of Geo.asym_updown a <> Geo.region_of Geo.asym_updown b
      in
      sym Geo.lan
      && sym Geo.wan_3region
      && sym Geo.mixed_1ms_80ms
      &&
      if cross then
        Geo.base Geo.asym_updown ~src:a ~dst:b
        <> Geo.base Geo.asym_updown ~src:b ~dst:a
      else sym Geo.asym_updown)

let test_geo_outage () =
  (* A one-region profile has nothing to cut its region from. *)
  check bool "lan rejected" true
    (match Geo.outage Geo.lan ~s:5 ~clients:[ 5; 6; 7; 8 ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* The bench GEO outage row's scenario: S=5, two writers and two
     readers; the last region (ap-south) holds nodes n mod 3 = 2. *)
  let o = Geo.outage Geo.wan_3region ~s:5 ~clients:[ 5; 6; 7; 8 ] in
  check int "last region" 2 o.Geo.region;
  check Alcotest.(list int) "cut nodes" [ 2; 5; 8 ] o.Geo.cut;
  check (Alcotest.float 0.0) "window opens" 0.05 o.Geo.from_;
  check (Alcotest.float 0.0) "window closes" 0.30 o.Geo.until

let test_geo_outage_budget () =
  (* A client cut off when the window opens must still hold its round
     trip open past the window's close plus one worst round trip: on
     every profile with a region to cut, the outage budget's timeout x
     retries outlasts both. *)
  List.iter
    (fun p ->
      match Geo.outage p ~s:5 ~clients:[ 5; 6; 7; 8 ] with
      | exception Invalid_argument _ -> ()
      | o ->
        let b = Geo.outage_budget p in
        check bool
          (Geo.name p ^ ": timeout x retries outlasts the window")
          true
          (b.Geo.rt_timeout *. float_of_int b.Geo.max_rt_retries
          > o.Geo.until -. o.Geo.from_ +. Geo.max_rtt p))
    Geo.profiles

let test_geo_wan3_live_atomic () =
  (* End to end: a live cluster under the wan-3region plan, streaming
     checker attached.  Atomicity must hold, nobody starves, and the
     cross-region quorum round trips must actually cost wire time. *)
  let profile = Geo.wan_3region in
  let s = 3 and tol = 1 in
  let w = 2 and r = 2 in
  let clients = List.init (w + r) (fun i -> s + i) in
  let faults = Geo.plan profile ~s ~clients in
  let res =
    let b = Geo.budget profile in
    run_register ~faults ~rt_timeout:b.Geo.rt_timeout
      ~max_rt_retries:b.Geo.max_rt_retries ~register:Registry.abd_mwmr ~s ~tol ~writers:w ~readers:r 2
  in
  check bool "atomic under wan-3region" true (atomic res);
  check int "no client starved" 0 res.Kv.Kv_session.starved;
  check bool "writes still two rounds" true
    (res.Kv.Kv_session.write_rounds = 2.0);
  (* S=3 puts one server per region, so every quorum's second reply is
     a ~80ms-RTT cross-region trip: the run cannot be loopback-fast. *)
  check bool "cross-region rounds cost wire time" true
    (res.Kv.Kv_session.duration > 0.2)

(* Seeded drop/delay/duplicate storm plus a kill → recover-restart of
   server 4, inside a possible regime, as [mwreg live -p w2r2 --ops 6
   --seed 3 --drop 0.08 --delay 0.03 --duplicate 0.1 --kill
   4@0.05..0.45] runs it.  Run once, read by the two cases below. *)
let storm_soak =
  lazy
    (run_register ~faults:(storm ~seed:3)
       ~crashes:
         Kv.Kv_session.[ (0.05, 0, 4, Kill); (0.45, 0, 4, Restart `Recover) ]
       ~rt_timeout:0.3 ~max_rt_retries:10 ~register:Registry.abd_mwmr ~s:5
       ~tol:1 ~writers:2 ~readers:2 6)

let test_chaos_soak () =
  (* The run must complete atomic, lossy links showing up only as
     retries, with the Table-1 rounds-per-completed-op contract
     intact. *)
  check bool "regime is possible" true
    (Quorums.Bounds.possible
       (Registry.design_point Registry.abd_mwmr)
       ~s:5 ~t:1 ~w:2 ~r:2);
  let res = Lazy.force storm_soak in
  check bool "atomic under chaos" true (atomic res);
  check int "no client starved" 0 res.Kv.Kv_session.starved;
  check bool "lossy links cost retries" true (res.Kv.Kv_session.retries > 0);
  check bool "completed writes still two rounds" true
    (res.Kv.Kv_session.write_rounds = 2.0)

let test_live_check_chaos () =
  (* The same storm, read from the streaming checker's side: its report
     covers every completed operation (aborted in-flight ops are fed as
     pending on top) and keeps its window bounded. *)
  let res = Lazy.force storm_soak in
  match res.Kv.Kv_session.online with
  | None -> Alcotest.fail "live_check:true returned no online report"
  | Some r ->
    check bool "online atomic" true (Check_sink.atomic r);
    check bool "checked the whole stream" true
      (r.Check_sink.checked >= res.Kv.Kv_session.ops);
    check bool "window bounded" true
      (r.Check_sink.peak_window <= r.Check_sink.checked)

let test_live_check_session () =
  (* The streaming checker rides a healthy live session: the online
     report must count every completed operation on the one key and
     keep its window bounded. *)
  let res =
    run_register ~register:Registry.abd_mwmr ~s:3 ~tol:1 ~writers:2
      ~readers:2 15
  in
  (* 2 writers × 15 writes + 2 readers × 30 reads. *)
  match res.Kv.Kv_session.online with
  | None -> Alcotest.fail "live_check:true returned no online report"
  | Some r ->
    check bool "online atomic" true (Check_sink.atomic r);
    check int "every completed op checked" 90 r.Check_sink.checked;
    check int "single live key" 1 r.Check_sink.keys;
    check bool "window bounded well below history" true
      (r.Check_sink.peak_window > 0 && r.Check_sink.peak_window <= 90)

(* The deterministic crash-stop script, on a 3-server cluster
   ([tol = 1], quorum 2) running LS97 (W2R2):

   + one-way cuts confine the write: the writer cannot reach server 2,
     the reader cannot reach server 1;
   + the writer completes a write — it lands exactly on quorum {0, 1};
   + server 0 is killed and restarted in [mode];
   + the reader reads; its quorum is {0, 2}.

   Returns the two-op history's verdict and what the read returned.
   With [`Recover], server 0 rejoins carrying the write; with [`Fresh],
   no server in the reader's quorum knows the acknowledged write. *)
let restart_scenario ~mode =
  let s = 3 and tol = 1 in
  let algo = Registry.client_algo Registry.abd_mwmr in
  (* Topology numbering: servers 0..2, writer 0 = node 3, reader 0 =
     node 4 (1 writer). *)
  let writer_node = s and reader_node = s + 1 in
  let faults =
    Faults.create ~seed:1
      [
        Faults.cut ~dir:Faults.To_server ~clients:[ writer_node ]
          ~servers:[ 2 ] ();
        Faults.cut ~dir:Faults.To_server ~clients:[ reader_node ]
          ~servers:[ 1 ] ();
      ]
  in
  let kc = Kv.Kv_cluster.start ~faults ~groups:1 ~s ~tol () in
  let cluster = Kv.Kv_cluster.group kc 0 in
  Fun.protect
    ~finally:(fun () -> Kv.Kv_cluster.shutdown kc)
    (fun () ->
      let router = Kv.Router.create ~rt_timeout:0.25 ~faults ~clients:1 kc in
      let wc = Kv.Router.client router ~index:0 in
      let rc = Kv.Router.client router ~index:1 in
      Fun.protect
        ~finally:(fun () ->
          Kv.Router.close_client wc;
          Kv.Router.close_client rc;
          Kv.Router.shutdown router)
        (fun () ->
          Faults.arm faults;
          let t0 = Clock.now () in
          let ts () = Clock.now () -. t0 in
          let key = Workload.Ycsb.key_name 0 in
          let write =
            algo.Client_core.new_writer (Kv.Router.key_ctx wc key) ~writer:0
          in
          let read =
            algo.Client_core.new_reader (Kv.Router.key_ctx rc key) ~reader:0
          in
          let payload = Histories.History.initial_value + 41 in
          let w_inv = ts () in
          let w_resp = ref None in
          write ~payload ~k:(fun _tag -> w_resp := Some (ts ()));
          Cluster.kill cluster 0;
          Cluster.restart ~mode cluster 0;
          let r_inv = ts () in
          let r_resp = ref None and r_result = ref None in
          read ~k:(fun value _tag ->
              r_result := Some value;
              r_resp := Some (ts ()));
          let open Histories in
          let history =
            History.of_ops
              [
                Op.write ~id:0 ~proc:(Op.Writer 0) ~value:payload ~inv:w_inv
                  ~resp:!w_resp;
                Op.read ~id:1 ~proc:(Op.Reader 0) ~inv:r_inv ~resp:!r_resp
                  ~result:!r_result;
              ]
          in
          (Checker.Atomicity.check history, !r_result)))

let test_restart_recover () =
  let verdict, read = restart_scenario ~mode:`Recover in
  check bool "recovered restart preserves atomicity" true (Result.is_ok verdict);
  check bool "read returns the acknowledged write" true
    (read = Some (Histories.History.initial_value + 41))

let test_restart_fresh () =
  let verdict, read = restart_scenario ~mode:`Fresh in
  check bool "fresh restart loses the acknowledged write: checker witness"
    true (Result.is_error verdict);
  check bool "read returned the stale initial value" true
    (read = Some Histories.History.initial_value)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "transport"
    [
      ( "codec",
        [
          Alcotest.test_case "sample round trips" `Quick
            test_codec_roundtrip_samples;
          Alcotest.test_case "large vectors" `Quick test_codec_large_vector;
          Alcotest.test_case "rejects truncation" `Quick
            test_codec_rejects_truncation;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "key length at max_key_len" `Quick
            test_codec_key_length_edge;
          Alcotest.test_case "frame length at max_frame_len" `Quick
            test_codec_frame_length_edge;
          Alcotest.test_case "rejects retired unkeyed tags" `Quick
            test_codec_rejects_unkeyed_tags;
          Alcotest.test_case "fill: a frame over 4 KiB, several reads" `Quick
            test_fill_large_frame;
          Alcotest.test_case "fill: 1 000 frames in one write" `Quick
            test_fill_many_small_frames;
          Alcotest.test_case "fill: EOF mid-frame" `Quick
            test_fill_eof_mid_frame;
          Alcotest.test_case "fill: empty socket" `Quick test_fill_empty_socket;
          QCheck_alcotest.to_alcotest codec_roundtrip_prop;
          QCheck_alcotest.to_alcotest codec_prefix_prop;
          QCheck_alcotest.to_alcotest codec_encode_into_prop;
        ] );
      ( "stream",
        [
          Alcotest.test_case "byte at a time" `Quick test_stream_byte_at_a_time;
          Alcotest.test_case "mixed chunks" `Quick test_stream_mixed_chunks;
          Alcotest.test_case "one 6 000-frame feed" `Quick test_stream_one_big_feed;
          QCheck_alcotest.to_alcotest stream_split_prop;
        ] );
      ( "server",
        [
          Alcotest.test_case "round trips" `Quick test_server_roundtrip;
          Alcotest.test_case "refuses a port outside 0..65535" `Quick
            test_server_refuses_bad_address;
          Alcotest.test_case "survives garbage peers" `Quick
            test_server_survives_garbage;
          Alcotest.test_case "reaps finished handlers" `Quick
            test_server_reaps_handlers;
        ] );
      ( "reactor",
        [
          Alcotest.test_case "interleaved byte-at-a-time frames" `Quick
            test_reactor_interleaved_partial_frames;
          Alcotest.test_case "backpressure on a slow reader" `Quick
            test_reactor_backpressure_slow_reader;
          Alcotest.test_case "256 concurrent short-lived connections" `Quick
            test_reactor_connection_churn;
          Alcotest.test_case "live run with kill/restart" `Quick
            test_reactor_live_kill_restart;
          Alcotest.test_case "a reader past the out-queue ceiling gets all"
            `Quick test_reactor_reader_past_ceiling;
          Alcotest.test_case "replies due together leave in one write"
            `Quick test_reactor_due_replies_one_write;
        ] );
      ( "mux",
        [
          Alcotest.test_case "interleaved clients, one shared conn" `Quick
            test_mux_interleaved_clients;
          Alcotest.test_case "quorum despite dead server" `Quick
            test_mux_quorum_with_dead_server;
          Alcotest.test_case "delayed frame does not block other clients"
            `Quick test_mux_hol_isolation;
          Alcotest.test_case "delayed link does not block other servers"
            `Quick test_mux_hol_across_servers;
          Alcotest.test_case "redials a server restarted after a long outage"
            `Slow test_mux_redials_long_restart;
          Alcotest.test_case "idle epoll wait has sub-ms resolution" `Quick
            test_poller_sub_ms_timeout;
          Alcotest.test_case "idle waits oversleep < 40 us on every thread"
            `Quick test_poller_oversleep;
          Alcotest.test_case "0.3 ms legs give a sub-1.5 ms round trip" `Quick
            test_mux_sub_ms_round_trip;
          Alcotest.test_case "leaks no fd or thread, shuts down fast"
            `Quick test_mux_lifecycle;
          Alcotest.test_case "copies due together leave in one write" `Quick
            test_mux_due_copies_one_write;
          Alcotest.test_case "one wake-pipe write per fan-out" `Quick
            test_mux_fanout_one_notify;
          Alcotest.test_case "a held reply dies with its link" `Quick
            test_mux_held_reply_dies_with_link;
          Alcotest.test_case "a staged request dies with its link" `Quick
            test_mux_staged_request_dies_with_link;
          Alcotest.test_case "due replies route at one wake-up"
            `Quick test_mux_due_replies_one_wakeup;
          Alcotest.test_case "a reply-leg plan delays a plan-less server"
            `Quick test_mux_reply_leg_delays;
          Alcotest.test_case "continuations run off the caller's thread"
            `Quick test_mux_continuation_off_caller;
          Alcotest.test_case "a continuation's exception reaches the caller"
            `Quick test_mux_continuation_exn;
          Alcotest.test_case "shutdown or stop on the loop's thread raises"
            `Quick test_loop_self_wait_raises;
          Alcotest.test_case "Unavailable on the caller, then a late reply"
            `Quick test_mux_unavailable_then_late;
          Alcotest.test_case "a server that stops reading stalls nothing"
            `Quick test_mux_stalled_server;
          Alcotest.test_case "reply-leg draws ignore client interleaving"
            `Quick test_mux_reply_salts_ignore_interleaving;
        ] );
      ( "live",
        [
          Alcotest.test_case "LS97 atomic (mux)" `Quick test_live_ls97_atomic;
          Alcotest.test_case "W2R1 one-round reads" `Quick
            test_live_w2r1_fast_read;
          Alcotest.test_case "single-writer guard" `Quick
            test_live_single_writer_guard;
          Alcotest.test_case "survives t kills (mux)" `Quick
            test_live_survives_t_kills;
          Alcotest.test_case "rounds accounting under overkill" `Quick
            test_rounds_accounting_under_overkill;
          Alcotest.test_case "adaptive atomic" `Quick test_live_adaptive_atomic;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "EINTR storm during writes" `Quick
            test_netio_eintr_retry;
          Alcotest.test_case "fault plans are deterministic" `Quick
            test_faults_deterministic;
          Alcotest.test_case "duplicate+delay: independent copy deadlines"
            `Quick test_dup_delay_independent_copies;
          QCheck_alcotest.to_alcotest staged_deliveries_prop;
          QCheck_alcotest.to_alcotest faults_spec_prop;
          Alcotest.test_case "soak atomic under faults (mux)" `Quick
            test_chaos_soak;
          Alcotest.test_case "live checker on healthy session" `Quick
            test_live_check_session;
          Alcotest.test_case "live checker rides the storm" `Quick
            test_live_check_chaos;
          Alcotest.test_case "restart with recovery is atomic (mux)" `Quick
            test_restart_recover;
          Alcotest.test_case "fresh restart yields a witness" `Quick
            test_restart_fresh;
          Alcotest.test_case "syscall counters advance" `Quick
            test_netio_counts_advance;
        ] );
      ( "geo",
        [
          Alcotest.test_case "both compilations read the same matrices"
            `Quick test_geo_compilations_agree;
          QCheck_alcotest.to_alcotest geo_symmetry_prop;
          Alcotest.test_case "outage cuts the last region" `Quick
            test_geo_outage;
          Alcotest.test_case "outage budget outlasts the window" `Quick
            test_geo_outage_budget;
          Alcotest.test_case "wan-3region live session atomic" `Quick
            test_geo_wan3_live_atomic;
        ] );
    ]
