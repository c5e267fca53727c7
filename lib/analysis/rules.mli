(** The mwlint rule set: eight repo-specific concurrency and
    I/O-discipline rules over Parsetrees.  See [RULES.md] for the
    catalog with rationale; the allowlists live here so they are
    code-reviewed along with the rules they scope.

    The walker records, per function: direct lock acquisitions,
    lock-nesting edges, resolved calls with the held set at the call
    site, and every read/write of a tracked mutable cell with the
    lexical held set at the access.  [Escape] and [Lockmap] consume
    these summaries for the shared-state passes, so the summary types
    are exposed here. *)

(** {1 Rule names} *)

val lock_order : string
val blocking_under_lock : string
val monotonic_time : string
val raw_io : string
val condition_wait_loop : string
val catch_all_exn : string
val shared_access : string
val atomic_discipline : string

val all_rules : (string * Finding.severity * string) list
(** [(name, severity, one-line description)] for every shipped rule. *)

val severity_of : string -> Finding.severity

(** {1 Configuration} *)

val spawn_calls : string list
(** Calls whose closure/function arguments run on another thread. *)

val lock_free_allow : (string * string) list
(** [(cell, justification)]: shared cells deliberately accessed without
    a lock.  A pattern is an exact cell name or a module prefix ending
    in [".*"].  Every entry must carry a justification and match at
    least one thread-shared cell of the whole tree (mwlint
    [--fail-stale] fails on one that does not); the [--lock-map]
    artifact prints the matched entries. *)

val allow_entry : string -> (string * string) option
(** The first [lock_free_allow] entry [(pattern, justification)] whose
    pattern matches the cell, if any. *)

(** {1 Analysis state}

    Per-file walks accumulate findings and per-function summaries into
    a shared state; the cross-file passes (LOCK-ORDER, escape, lock
    inference) run once all files are in. *)

type site = { s_file : string; s_line : int; s_col : int }

type access = {
  a_cell : string;
  a_write : bool;
  a_bool_lit : bool;
  a_site : site;
  a_held : string list;
}

type fsum = {
  f_mod : string;
  mutable f_acquires : string list;
  mutable f_edges : (string * string * site) list;
  mutable f_calls : (string * string list * site) list;
  mutable f_accesses : access list;
}

type decl = { d_mod : string; d_bool : bool; d_tracked : bool }

type cellinfo = {
  c_bool : bool;
  c_creator : string option;
  c_toplevel : bool;  (** module-global binding vs function-local *)
}

type state = {
  funcs : (string, fsum) Hashtbl.t;
  decls : (string, decl) Hashtbl.t;
  cells : (string, cellinfo) Hashtbl.t;
  lookups : (string * string, string option) Hashtbl.t;
      (** callee-resolution cache for [Escape.lookup] *)
  mutable findings : Finding.t list;
}

val create_state : unit -> state

val collect_decls : state -> Source.t -> unit
(** Decl pre-pass: record every mutable or container-typed record
    label with its declaring module.  Must run over ALL sources before
    any [analyze_file] call so cross-module field accesses resolve
    independently of file order. *)

val analyze_file : state -> Source.t -> unit
(** Run the single-file rules on one source and record its function
    summaries.  Findings accumulate in the state. *)

val lock_order_findings : state -> Finding.t list
(** Build the inter-module lock-acquisition graph from every summary
    recorded so far (lexical nesting plus held-set x transitive
    acquisitions at call sites) and report each edge participating in a
    cycle, including self-edges (stdlib mutexes are not reentrant). *)

val findings : state -> Finding.t list
(** The single-file findings recorded so far (unsorted). *)

val path_matches : suffix:string -> string -> bool
(** Whole-component suffix match used by every path-scoped allowlist. *)
