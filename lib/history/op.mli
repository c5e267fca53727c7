(** Read/write operations on the shared register.

    An operation records who invoked it, what it did, when it was invoked
    and when it responded (on the discrete global clock of §2.1 — the
    clock the processes themselves cannot read, but the specification and
    the checkers can). *)

(** Client processes.  Readers and writers are disjoint sets in the
    paper's model; the constructors keep them apart. *)
type proc = Writer of int | Reader of int

val proc_equal : proc -> proc -> bool
val pp_proc : Format.formatter -> proc -> unit

type kind =
  | Write of int  (** [write(v)] — only writers invoke this. *)
  | Read          (** [read()] — only readers invoke this. *)

type t = {
  id : int;              (** Unique within a history. *)
  proc : proc;
  kind : kind;
  inv : float;           (** Invocation timestamp [O.s]. *)
  resp : float option;   (** Response timestamp [O.f]; [None] if pending. *)
  result : int option;   (** Value returned by a completed read. *)
}

val write : id:int -> proc:proc -> value:int -> inv:float -> resp:float option -> t
val read : id:int -> proc:proc -> inv:float -> resp:float option -> result:int option -> t

val is_write : t -> bool
val is_read : t -> bool
val is_complete : t -> bool

val written_value : t -> int option
(** The value a write stores; [None] for reads. *)

val value_of : t -> int option
(** The value an operation "carries": written value for a write, returned
    value for a completed read. *)

val precedes : t -> t -> bool
(** [precedes o1 o2] is the real-time order [O1 ≺σ O2]: [o1] responded
    before [o2] was invoked.  Pending operations precede nothing. *)

val concurrent : t -> t -> bool
(** Neither precedes the other. *)

val pp : Format.formatter -> t -> unit
