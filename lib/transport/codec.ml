open Registers

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Decode_error msg)) fmt

type frame =
  | Keyed_request of { key : string; rt : int; client : int; req : Wire.req }
  | Keyed_reply of {
      key : string;
      rt : int;
      client : int;
      server : int;
      rep : Wire.rep;
    }

(* Hard ceilings so a corrupt or hostile peer cannot make us allocate
   unboundedly.  Generous versus anything the protocols produce. *)
let max_frame_len = 1 lsl 26 (* 64 MiB *)

let max_list_len = 1 lsl 20

(* Keys are short names, not blobs; anything longer is a broken peer. *)
let max_key_len = 1024

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let add_int b n = Buffer.add_int64_le b (Int64.of_int n)

let add_value b (v : Wire.value) =
  add_int b v.Wire.tag.Tstamp.ts;
  add_int b v.Wire.tag.Tstamp.wid;
  add_int b v.Wire.payload

let add_list add b xs =
  add_int b (List.length xs);
  List.iter (add b) xs

let add_req b = function
  | Wire.Query vs ->
    Buffer.add_char b '\000';
    add_list add_value b vs
  | Wire.Update v ->
    Buffer.add_char b '\001';
    add_value b v

let add_rep b = function
  | Wire.Read_ack { current; vector } ->
    Buffer.add_char b '\000';
    add_value b current;
    add_list
      (fun b (v, updated) ->
        add_value b v;
        add_list add_int b updated)
      b vector
  | Wire.Write_ack { current } ->
    Buffer.add_char b '\001';
    add_value b current

(* Encoding an oversized key is a caller bug, caught here rather than at
   the receiving server's strict decoder. *)
let add_key b k =
  if String.length k > max_key_len then
    invalid_arg "Codec: key exceeds max_key_len";
  add_int b (String.length k);
  Buffer.add_string b k

(* Tags 0 and 1 are retired (they framed unkeyed registers) and must
   not be reused: a peer still sending them is rejected, not misread. *)
let add_frame b = function
  | Keyed_request { key; rt; client; req } ->
    Buffer.add_char b '\002';
    add_key b key;
    add_int b rt;
    add_int b client;
    add_req b req
  | Keyed_reply { key; rt; client; server; rep } ->
    Buffer.add_char b '\003';
    add_key b key;
    add_int b rt;
    add_int b client;
    add_int b server;
    add_rep b rep

(* Exact wire sizes, so [encode_into] can emit the length prefix first
   and never needs a second buffer or a patch-up pass. *)
let value_size = 24 (* ts + wid + payload *)

let req_size = function
  | Wire.Query vs -> 1 + 8 + (value_size * List.length vs)
  | Wire.Update _ -> 1 + value_size

let rep_size = function
  | Wire.Write_ack _ -> 1 + value_size
  | Wire.Read_ack { vector; _ } ->
    1 + value_size + 8
    + List.fold_left
        (fun acc (_, updated) ->
          acc + value_size + 8 + (8 * List.length updated))
        0 vector

let key_size k = 8 + String.length k

let body_size = function
  | Keyed_request { key; req; _ } -> 1 + key_size key + 8 + 8 + req_size req
  | Keyed_reply { key; rep; _ } ->
    1 + key_size key + 8 + 8 + 8 + rep_size rep

let frame_size frame = 4 + body_size frame

let encode_into b frame =
  Buffer.clear b;
  Buffer.add_int32_be b (Int32.of_int (body_size frame));
  add_frame b frame

let encode frame =
  let b = Buffer.create (frame_size frame) in
  encode_into b frame;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Decoding (strict: every malformation is a [Decode_error])            *)
(* ------------------------------------------------------------------ *)

type cursor = { data : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.data then
    fail "truncated frame: need %d bytes at offset %d of %d" n c.pos
      (String.length c.data)

let get_byte c =
  need c 1;
  let x = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  x

let get_int c =
  need c 8;
  let x = Int64.to_int (String.get_int64_le c.data c.pos) in
  c.pos <- c.pos + 8;
  x

let get_len c what =
  let n = get_int c in
  if n < 0 || n > max_list_len then fail "bad %s length %d" what n;
  n

let get_value c =
  let ts = get_int c in
  let wid = get_int c in
  let payload = get_int c in
  { Wire.tag = { Tstamp.ts; wid }; payload }

let get_list get c what =
  let n = get_len c what in
  List.init n (fun _ -> get c)

let get_req c =
  match get_byte c with
  | 0 -> Wire.Query (get_list get_value c "query vector")
  | 1 -> Wire.Update (get_value c)
  | b -> fail "unknown request tag %d" b

let get_rep c =
  match get_byte c with
  | 0 ->
    let current = get_value c in
    let vector =
      get_list
        (fun c ->
          let v = get_value c in
          let updated = get_list get_int c "updated set" in
          (v, updated))
        c "value vector"
    in
    Wire.Read_ack { current; vector }
  | 1 -> Wire.Write_ack { current = get_value c }
  | b -> fail "unknown reply tag %d" b

let get_key c =
  let n = get_int c in
  if n < 0 || n > max_key_len then fail "bad key length %d" n;
  need c n;
  let k = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  k

let get_frame c =
  match get_byte c with
  | 2 ->
    let key = get_key c in
    let rt = get_int c in
    let client = get_int c in
    let req = get_req c in
    Keyed_request { key; rt; client; req }
  | 3 ->
    let key = get_key c in
    let rt = get_int c in
    let client = get_int c in
    let server = get_int c in
    let rep = get_rep c in
    Keyed_reply { key; rt; client; server; rep }
  | b -> fail "unknown frame tag %d" b

let decode_body body =
  let c = { data = body; pos = 0 } in
  let frame = get_frame c in
  if c.pos <> String.length body then
    fail "trailing garbage: %d of %d bytes consumed" c.pos (String.length body);
  frame

let reply_route body =
  let c = { data = body; pos = 0 } in
  match get_byte c with
  | 3 ->
    let key = get_key c in
    let rt = get_int c in
    let client = get_int c in
    Some (key, rt, client)
  | 2 -> None
  | b -> fail "unknown frame tag %d" b

let decode s =
  if String.length s < 4 then fail "short frame: no length prefix";
  let n = Int32.to_int (String.get_int32_be s 0) in
  if n < 0 || n > max_frame_len then fail "bad frame length %d" n;
  if String.length s <> 4 + n then
    fail "frame length mismatch: prefix says %d, got %d" n (String.length s - 4);
  decode_body (String.sub s 4 n)

(* ------------------------------------------------------------------ *)
(* Incremental reassembly over a byte stream                            *)
(* ------------------------------------------------------------------ *)

(* Frames are read at an offset, and the consumed prefix is dropped
   only when the tail runs short of room, not once per frame, so
   draining [k] buffered frames costs O(k) rather than O(k²). *)
module Stream = struct
  type t = { mutable buf : Bytes.t; mutable pos : int; mutable len : int }

  let create () = { buf = Bytes.create 4096; pos = 0; len = 0 }

  (* Make room for [n] more bytes after [len]: drop the consumed
     prefix, and grow (doubling) only when the unconsumed bytes and [n]
     do not fit in the buffer as it is. *)
  let reserve t n =
    if t.pos = t.len then begin
      t.pos <- 0;
      t.len <- 0
    end;
    if Bytes.length t.buf - t.len < n then begin
      let live = t.len - t.pos in
      let cap = ref (Bytes.length t.buf) in
      while !cap < live + n do
        cap := !cap * 2
      done;
      let buf =
        if !cap > Bytes.length t.buf then Bytes.create !cap else t.buf
      in
      Bytes.blit t.buf t.pos buf 0 live;
      t.buf <- buf;
      t.pos <- 0;
      t.len <- live
    end

  let feed t src n =
    if n > 0 then begin
      reserve t n;
      Bytes.blit src 0 t.buf t.len n;
      t.len <- t.len + n
    end

  (* The least room a read is offered: a stream whose unconsumed bytes
     leave less than this after compaction grows. *)
  let min_read = 1024

  let fill t fd =
    let rec go () =
      reserve t min_read;
      let room = Bytes.length t.buf - t.len in
      match Netio.read_nb fd t.buf t.len room with
      | None -> true
      | Some 0 -> false
      | Some n ->
        t.len <- t.len + n;
        (* A short read means the socket buffer is (currently) empty:
           skip the confirming EAGAIN syscall. *)
        n < room || go ()
    in
    try go () with Unix.Unix_error _ -> false

  let next_body t =
    if t.len - t.pos < 4 then None
    else begin
      let n = Int32.to_int (Bytes.get_int32_be t.buf t.pos) in
      if n < 0 || n > max_frame_len then fail "bad frame length %d" n;
      if t.len - t.pos < 4 + n then None
      else begin
        let body = Bytes.sub_string t.buf (t.pos + 4) n in
        t.pos <- t.pos + 4 + n;
        Some body
      end
    end

  let next t = Option.map decode_body (next_body t)
end
