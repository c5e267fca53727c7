(** BENCH_results.json, declared once.

    The document is a header ([generated_by], [recommended_domain_count])
    followed by result sections in a fixed order.  Each section is one
    table, which declares every column once: its key, its check (type
    and bound) and the function computing it from the table's
    measurement.  The bench harness fills tables with {!add} and writes
    them with {!write}; the validator runs {!validate} against the same
    declarations. *)

(** {1 JSON} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

val parse : string -> json
(** Strict parser for one JSON document; [Parse_error] with the byte
    offset otherwise.  Objects keep their member order. *)

val print : json -> string
(** Indented JSON.  Integral numbers print bare, others in the fewest
    digits that parse back to the same float, so
    [parse (print j) = j].  [Invalid_argument] on a non-finite number. *)

(** {1 Measurements} *)

type sweep = {
  runs : int;
  broken : int;  (** non-atomic runs *)
  seq_s : float;  (** median sequential sweep, seconds *)
  par_s : float;  (** median sweep on the pool, seconds *)
  domains : int;
  speedup : float;  (** median of paired per-round ratios *)
}
(** The T1 sweep timed sequentially and on the domain pool. *)

(** {1 Tables} *)

type 'm table
(** Where measurements of type ['m] land in the document. *)

val wall_clock : sweep table
val micro_ns_per_run : (string * float) list table

val add : 'm table -> 'm -> unit
(** Encode a measurement and keep it for {!write}: a row appended to a
    table of rows, or the value of a single-value table.  Every
    non-integral number is rounded to 6 significant digits.
    [Invalid_argument] naming every failed check if the encoded value
    breaks a column check; nothing is kept then. *)

(** {1 Documents} *)

val sections : json -> string list
(** The declared sections a document holds, in declaration order. *)

val validate : json -> string list
(** Every error of a document as ["path: message"]; [[]] when it
    conforms.  Each present section is checked against its columns; at
    least one section must be present, and a top-level key that is
    neither a header key nor a declared section is an error. *)

val write : string -> string list
(** Merge this run's sections into the document at the path and return
    the section keys it now holds, in order; [[]] and no write when no
    table was added to.  Declared sections this run did not regenerate
    are kept from the existing document, undeclared keys are dropped,
    and the header is rewritten.  [Failure], leaving the file untouched,
    when the existing file does not parse as a JSON object. *)
