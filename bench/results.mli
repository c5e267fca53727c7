(** BENCH_results.json, declared once.

    The document is a header ([generated_by], [recommended_domain_count])
    followed by result sections in a fixed order.  Each section is made
    of tables; a table declares every column once — its key, its check
    (type and bound) and the function computing it from the table's
    measurement — plus the gates its rows must pass.  The bench harness
    fills tables with {!add} and writes them with {!write}; the
    validator runs {!validate} against the same declarations. *)

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

type run = {
  register : Protocol.Register_intf.t;
  s : int;
  tol : int;
  writers : int;
  readers : int;
  result : Kv.Kv_session.result;
}
(** One single-register run on a fresh cluster. *)

type outage = {
  profile : Transport.Geo.profile;
  region : int;  (** the region partitioned away *)
  window_s : float;  (** how long it was cut off *)
}

type kv_run = {
  regime : string;  (** ["closed"] (saturated) or ["scaleout"] (think time) *)
  groups : int;
  spec : Kv.Kv_session.spec;
  kv : Kv.Kv_session.result;
}

type soak_run = {
  plane : string;  (** ["kv"] or ["session"] *)
  label : string;
  ops : int;  (** completed client operations *)
  duration : float;
  nocheck_throughput : float;  (** ops/s of the same workload, checking off *)
  expected_atomic : bool;
  report : Transport.Check_sink.report;
}

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
val live : run table

val live_scaling : (string * run) table
(** Rows are (regime — ["steady"] or ["short"] — , run). *)

val kv_scaling : kv_run table
val geo_rows : (Transport.Geo.profile * run) table

val geo_outage : (outage * run) table
(** The run must carry the streaming checker's report. *)

val streamed_atomic : Kv.Kv_session.result -> bool
(** The streaming checker's verdict on a run; [false] for a run made
    without [live_check]. *)

val soak : soak_run table
val chaos_base_seed : int table
val chaos_soak : Kv.Chaos.soak table
val chaos_restart : Kv.Chaos.restart_outcome table

val kv_grid : (int * int * int * Workload.Ycsb.dist) list
(** The closed-loop mix-A acceptance grid as (groups, clients, keys,
    dist) cells, in sweep order; [--require-knee] demands every cell. *)

val add : 'm table -> 'm -> unit
(** Encode a measurement and keep it for {!write}: a row appended to a
    table of rows, or the value of a single-value table.  Every
    non-integral number is rounded to 6 significant digits.
    [Invalid_argument] naming every failed check if the encoded value
    breaks a column check; nothing is kept then. *)

(** {1 Documents} *)

val sections : json -> string list
(** The declared sections a document holds, in declaration order. *)

val validate : require_knee:bool -> json -> string list
(** Every error of a document as ["path: message"], in document order;
    [[]] when it conforms.  Each present section is checked against its
    columns and gates; at least one section must be present.
    [require_knee] adds the gates that hold only for the committed
    full-budget document, and requires the geo section. *)

val write : string -> string list
(** Merge this run's sections into the document at the path and return
    the section keys it now holds, in order; [[]] and no write when no
    table was added to.  Sections this run did not regenerate are kept
    from the existing document; the header is rewritten.  [Failure],
    leaving the file untouched, when the existing file does not parse
    as a JSON object. *)
