(* mwlint: the repo's AST-driven concurrency & I/O-discipline lint.

     mwlint [--baseline FILE] [--fail-stale] [--rules]
            [--format text|json] [--lock-map FILE] DIR_OR_FILE...

   Parses every .ml under the given roots (default: lib bin bench test
   examples) into a Parsetree, runs the rule engine (see
   lib/analysis/RULES.md), subtracts the checked-in baseline, and exits
   non-zero on any new finding.  With [--fail-stale], a baseline entry
   that no longer matches any finding is an error rather than a
   warning — CI uses it to force the suppression file to shrink as debt
   is paid off; the same holds for a [Rules.lock_free_allow] entry that
   matches no thread-shared cell, so run it over the whole tree.
   [--format json] prints one finding object per line (rule, severity,
   file, line, col, message) for annotation tooling;
   [--lock-map FILE] writes the inferred lock -> guarded-cells table
   ("-" for stdout).  Exit codes: 0 clean, 1 new findings (or stale
   entries under [--fail-stale]), 2 usage / parse / baseline errors. *)

let usage =
  "mwlint [--baseline FILE] [--fail-stale] [--rules] [--format text|json] \
   [--lock-map FILE] [DIR_OR_FILE...]"

let () =
  let baseline_path = ref "" in
  let fail_stale = ref false in
  let list_rules = ref false in
  let format = ref "text" in
  let lock_map_path = ref "" in
  let roots = ref [] in
  Arg.parse
    [
      ( "--baseline",
        Arg.Set_string baseline_path,
        "FILE checked-in suppression file (RULE file:line:col justification)"
      );
      ( "--fail-stale",
        Arg.Set fail_stale,
        " treat stale baseline and lock_free_allow entries as errors (exit 1)" );
      ("--rules", Arg.Set list_rules, " list the rule catalog and exit");
      ( "--format",
        Arg.Symbol ([ "text"; "json" ], fun s -> format := s),
        " output format: text (default) or json (one object per line)" );
      ( "--lock-map",
        Arg.Set_string lock_map_path,
        "FILE write the inferred lock -> guarded-cells map (- for stdout)"
      );
    ]
    (fun root -> roots := root :: !roots)
    usage;
  if !list_rules then begin
    List.iter
      (fun (name, sev, descr) ->
        Printf.printf "%-22s %-8s %s\n" name
          (Analysis.Finding.severity_to_string sev)
          descr)
      Analysis.Rules.all_rules;
    exit 0
  end;
  let roots =
    match List.rev !roots with
    | [] -> [ "lib"; "bin"; "bench"; "test"; "examples" ]
    | rs -> rs
  in
  let files = Analysis.Source.find_ml_files ~roots in
  if files = [] then begin
    Printf.eprintf "mwlint: no .ml files under: %s\n" (String.concat " " roots);
    exit 2
  end;
  let sources =
    List.map
      (fun path ->
        try Analysis.Source.parse_file path
        with Analysis.Source.Parse_error msg ->
          Printf.eprintf "mwlint: parse error:\n%s\n" msg;
          exit 2)
      files
  in
  let result = Analysis.Engine.run sources in
  let findings = result.Analysis.Engine.findings in
  (match !lock_map_path with
  | "" -> ()
  | "-" -> print_string result.Analysis.Engine.lock_map
  | path ->
    let oc = open_out path in
    output_string oc result.Analysis.Engine.lock_map;
    close_out oc);
  let entries =
    if !baseline_path = "" then []
    else
      match Analysis.Baseline.load !baseline_path with
      | Ok entries -> entries
      | Error msg ->
        Printf.eprintf "mwlint: bad baseline %s: %s\n" !baseline_path msg;
        exit 2
  in
  List.iter
    (fun e ->
      if e.Analysis.Baseline.col = None then
        Printf.eprintf
          "mwlint: note: baseline entry %s %s:%d uses the deprecated \
           column-less format — add the column (RULE file:line:col why); \
           support for the old format will be removed next release\n"
          e.Analysis.Baseline.rule e.Analysis.Baseline.file
          e.Analysis.Baseline.line)
    entries;
  let fresh, stale = Analysis.Baseline.apply ~entries findings in
  List.iter
    (fun e ->
      Printf.eprintf
        "mwlint: %s: stale baseline entry %s %s:%d (no such finding \
         anymore — delete it)\n"
        (if !fail_stale then "error" else "warning")
        e.Analysis.Baseline.rule e.Analysis.Baseline.file
        e.Analysis.Baseline.line)
    stale;
  let stale_allow = result.Analysis.Engine.stale_allow in
  List.iter
    (fun pat ->
      Printf.eprintf
        "mwlint: %s: stale lock_free_allow entry %s (matches no \
         thread-shared cell — delete it from lib/analysis/rules.ml)\n"
        (if !fail_stale then "error" else "warning")
        pat)
    stale_allow;
  (match !format with
  | "json" ->
    List.iter (fun f -> print_endline (Analysis.Finding.to_json f)) fresh
  | _ ->
    List.iter (fun f -> print_endline (Analysis.Finding.to_string f)) fresh);
  let suppressed = List.length findings - List.length fresh in
  if !format <> "json" then
    Printf.printf "mwlint: %d file(s), %d finding(s), %d suppressed\n"
      (List.length files) (List.length fresh) suppressed;
  if fresh <> [] || (!fail_stale && (stale <> [] || stale_allow <> [])) then
    exit 1
