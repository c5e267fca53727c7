(* A connection's outbound byte queue: a flat window [off, off + len)
   that frames are appended to and writes consume from the front.
   Everything queued between two flushes leaves in one write, and a
   write the kernel cuts short leaves the rest queued, in order, for
   the next one. *)

type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

let create n = { buf = Bytes.create n; off = 0; len = 0 }

let length q = q.len

let is_empty q = q.len = 0

let clear q =
  q.off <- 0;
  q.len <- 0

let ensure q extra =
  let need = q.len + extra in
  if q.off + need > Bytes.length q.buf then
    if need <= Bytes.length q.buf then begin
      (* Enough total room: slide the window back to the start. *)
      Bytes.blit q.buf q.off q.buf 0 q.len;
      q.off <- 0
    end
    else begin
      let cap = ref (max 4096 (2 * Bytes.length q.buf)) in
      while !cap < need do
        cap := 2 * !cap
      done;
      let nb = Bytes.create !cap in
      Bytes.blit q.buf q.off nb 0 q.len;
      q.buf <- nb;
      q.off <- 0
    end

let add_buffer q b =
  let n = Buffer.length b in
  ensure q n;
  Buffer.blit b 0 q.buf (q.off + q.len) n;
  q.len <- q.len + n

let add_subbytes q b pos n =
  ensure q n;
  Bytes.blit b pos q.buf (q.off + q.len) n;
  q.len <- q.len + n

let consume q n =
  q.off <- q.off + n;
  q.len <- q.len - n;
  if q.len = 0 then q.off <- 0

let rec flush q fd =
  if q.len = 0 then true
  else
    match Netio.write_nb fd q.buf q.off q.len with
    | Some n ->
      consume q n;
      flush q fd
    | None -> false
