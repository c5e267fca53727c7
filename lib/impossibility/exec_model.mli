(** Abstract executions of the full-info model.

    An execution is, for each server, the sequence of tokens (write
    arrivals and read-round arrivals) the server receives, in order.  A
    round that *skips* a server simply has no token there.  This is the
    exact data the impossibility proof manipulates: "swap two operations
    on server s", "let a round skip s", "add R₂⁽²⁾ back after R₁⁽²⁾" are
    all list surgeries on one server's sequence.

    What a reader returns can depend only on its {!view}: for each of its
    two rounds and each server the round reached, the prefix of that
    server's sequence that precedes the round's arrival.  Two executions
    that give a reader equal views are *indistinguishable* to it — the
    pillar of every chain argument in §3. *)

type t

val make : label:string -> Token.t list array -> t
(** Raises [Invalid_argument] if a token repeats on a server or a
    reader's round 2 precedes its round 1 somewhere. *)

val label : t -> string
val relabel : t -> string -> t
val servers : t -> int
val arrivals : t -> int -> Token.t list

(** {1 Surgery} *)

val remove : t -> server:int -> Token.t -> t
(** Remove a token from one server (the round now skips it).  No-op if
    absent. *)

val insert_after : t -> server:int -> after:Token.t -> Token.t -> t
(** Insert a token immediately after another on one server.  Raises if
    [after] is absent or the token already present. *)

val append : t -> server:int -> Token.t -> t

val equal : t -> t -> bool
(** Same per-server sequences (labels ignored). *)

(** {1 Views} *)

type view_entry = { server : int; prefix : Token.t list }

type view = {
  reader : int;
  round1 : view_entry list; (** Servers round 1 reached, ascending id. *)
  round2 : view_entry list;
}

val view : t -> reader:int -> view

val view_equal : view -> view -> bool

val digits_of_prefix : Token.t list -> int list
(** Just the write digits of a prefix, in order — the *crucial
    information* of §4.1 ("12", "21", "1", …). *)

val pp : Format.formatter -> t -> unit
