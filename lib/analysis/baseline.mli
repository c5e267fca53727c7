(** The checked-in suppression file.

    One entry per line:

    {v RULE path/to/file.ml:LINE:COL justification text... v}

    ['#'] starts a comment; blank lines are ignored.  Every entry must
    carry a justification — the parser rejects bare suppressions.  An
    entry suppresses exactly one finding keyed by (rule, file, line,
    col), so a suppressed site that drifts shows up again on the next
    run — by design: suppressions are for deliberate, reviewed
    exceptions, not for making the tool quiet.  A line without the
    column ([RULE file:LINE why]) is malformed. *)

type entry = {
  rule : string;
  file : string;
  line : int;
  col : int;
  justification : string;
}

val load : string -> (entry list, string) result
(** Parse a baseline file; a missing file is an empty baseline.
    [Error msg] on a malformed or justification-less line. *)

val apply :
  entries:entry list ->
  Finding.t list ->
  Finding.t list * entry list
(** Partition findings against the baseline: [(new_findings,
    stale_entries)] — findings no entry matches, and entries matching
    no finding (candidates for deletion). *)
