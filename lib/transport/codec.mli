(** Length-prefixed binary codec for the register wire protocol.

    One frame = a 4-byte big-endian body length followed by the body: a
    tag byte ([Keyed_request] = 2, [Keyed_reply] = 3), the register key
    (an 8-byte length then its bytes), the round-trip id and the client
    or server index, then the {!Registers.Wire.req} or
    {!Registers.Wire.rep} payload — including the full value vector of a
    READACK, each value with its [updated] client set.  Integers travel
    as 8-byte little-endian two's-complement.

    Every frame names its register: a server hosts one keyspace and
    nothing else, so there is no unkeyed form.  Decoding is strict:
    short input, unknown tags (including the retired unkeyed tags 0 and
    1), negative or oversized lengths, and trailing bytes all raise
    {!Decode_error} — a peer speaking anything else is disconnected
    rather than misread, over a Unix-domain or a TCP stream alike. *)

exception Decode_error of string

type frame =
  | Keyed_request of {
      key : string;
      rt : int;
      client : int;
      req : Registers.Wire.req;
    }  (** A request addressed to register [key] of a server's keyspace. *)
  | Keyed_reply of {
      key : string;
      rt : int;
      client : int;
      server : int;
      rep : Registers.Wire.rep;
    }
      (** The reply echoes the request's [key] and [client]: on a
          multiplexed connection shared by many clients, [(client, rt)]
          routes it to the right mailbox, and a client awaiting key [k]
          must drop a reply for any other key rather than count it
          toward its quorum. *)

val max_frame_len : int
(** Largest accepted body, in bytes (corrupt-length guard). *)

val max_key_len : int
(** Longest accepted register key, in bytes.  Encoding a longer key
    raises [Invalid_argument]; decoding one raises {!Decode_error}. *)

val frame_size : frame -> int
(** Exact wire size of [frame] (length prefix included), computed
    without encoding. *)

val encode : frame -> string
(** The full wire bytes: length prefix + body. *)

val encode_into : Buffer.t -> frame -> unit
(** [encode_into b frame] clears [b] and writes exactly the bytes of
    [encode frame] into it.  Reusing one buffer per connection makes the
    hot send path allocation-free once the buffer has grown to its
    steady-state size: [Buffer.contents] is never needed because callers
    blit the buffer straight into a reused [Bytes.t] staging area. *)

val decode : string -> frame
(** Inverse of {!encode} on exactly one whole frame.
    @raise Decode_error on any malformation, including trailing bytes. *)

val decode_body : string -> frame
(** {!decode} of a frame's body, its length prefix already stripped
    (what {!Stream.next_body} returns). *)

val reply_route : string -> (string * int * int) option
(** The [(key, rt, client)] of a reply frame's body, read without
    decoding the reply itself; [None] for a request frame's body.  A
    receiver that may hold a reply decides its fate from these and
    keeps the compact encoded body meanwhile.
    @raise Decode_error on a malformed header (the rest of the body is
    checked only by {!decode_body}). *)

(** Reassembles frames from an arbitrarily-chunked byte stream (TCP reads
    need not align with frame boundaries). *)
module Stream : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> unit
  (** [feed t buf n] appends the first [n] bytes of [buf]. *)

  val fill : t -> Unix.file_descr -> bool
  (** [fill t fd] reads the non-blocking socket [fd] straight into
      [t]'s own buffer ({!Netio.read_nb}), stopping at a short read or
      EAGAIN.  Before each read it drops the consumed prefix if the
      tail has too little room, and grows the buffer (doubling, as
      {!feed} does) only if the unconsumed bytes still leave too
      little: a frame larger than the buffer, or one wake-up's backlog.
      Returns [false] once the peer closed or the read failed: the
      caller handles the frames already in [t] (never a partial one),
      then drops the connection. *)

  val next : t -> frame option
  (** The next complete frame, if one has fully arrived.
      @raise Decode_error if the buffered data is malformed. *)

  val next_body : t -> string option
  (** The next complete frame's body, undecoded ({!decode_body}).
      @raise Decode_error on a malformed length prefix. *)
end
