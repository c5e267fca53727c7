(** Lint findings, keyed by (rule, file, line, col).

    The column is part of the identity: two distinct findings of the
    same rule on the same line (e.g. two shared fields accessed in one
    expression) must not collapse into one. *)

type severity = Error | Warning

val severity_to_string : severity -> string

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;  (** 1-indexed column of the finding's anchor *)
  message : string;
}

val of_loc :
  rule:string -> severity:severity -> file:string -> Location.t -> string -> t
(** Anchor a finding at the start line/column of an AST location. *)

val compare : t -> t -> int
(** Order by file, then line, then column, then rule — the report
    order. *)

val to_string : t -> string
(** [file:line:col: \[RULE\] message] — the one-line report form. *)

val to_json : t -> string
(** One JSON object — [{"rule":…,"severity":…,"file":…,"line":…,
    "col":…,"message":…}] — for [--format json] and annotation
    tooling. *)
