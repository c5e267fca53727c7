(* mwlint: the repo's AST-driven concurrency & I/O-discipline lint.

     mwlint [--fail-stale] [--rules] [--format text|json]
            [--lock-map FILE] DIR_OR_FILE...

   Parses every .ml and .mli under the given roots (default: lib bin
   bench test examples perfbench) into a Parsetree, runs the rule
   engine (see lib/analysis/RULES.md) and exits non-zero on any
   finding.  A finding is excused only by name, in
   [Rules.lock_free_allow] or [Rules.export_keep].  With
   [--fail-stale], a [lock_free_allow] entry that matches no
   thread-shared cell or an [export_keep] entry that excuses no unused
   export is an error rather than a warning, so run it over the whole
   tree (UNUSED-EXPORT needs every user in view anyway).
   [--format json] prints one finding object per line (rule, severity,
   file, line, col, message) for annotation tooling;
   [--lock-map FILE] writes the inferred lock -> guarded-cells table
   ("-" for stdout).  Exit codes: 0 clean, 1 findings (or stale
   entries under [--fail-stale]), 2 usage / parse errors. *)

let usage =
  "mwlint [--fail-stale] [--rules] [--format text|json] [--lock-map FILE] \
   [DIR_OR_FILE...]"

let () =
  let fail_stale = ref false in
  let list_rules = ref false in
  let format = ref "text" in
  let lock_map_path = ref "" in
  let roots = ref [] in
  Arg.parse
    [
      ( "--fail-stale",
        Arg.Set fail_stale,
        " treat stale lock_free_allow and export_keep entries as errors \
         (exit 1)" );
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
    | [] -> [ "lib"; "bin"; "bench"; "test"; "examples"; "perfbench" ]
    | rs -> rs
  in
  let files = Analysis.Source.find_files ~ext:".ml" ~roots in
  if files = [] then begin
    Printf.eprintf "mwlint: no .ml files under: %s\n" (String.concat " " roots);
    exit 2
  end;
  let parse f path =
    try f path
    with Analysis.Source.Parse_error msg ->
      Printf.eprintf "mwlint: parse error:\n%s\n" msg;
      exit 2
  in
  let sources = List.map (parse Analysis.Source.parse_file) files in
  let intfs =
    List.map
      (parse Analysis.Source.parse_interface_file)
      (Analysis.Source.find_files ~ext:".mli" ~roots)
  in
  let result = Analysis.Engine.run ~intfs sources in
  let findings = result.Analysis.Engine.findings in
  (match !lock_map_path with
  | "" -> ()
  | "-" -> print_string result.Analysis.Engine.lock_map
  | path ->
    let oc = open_out path in
    output_string oc result.Analysis.Engine.lock_map;
    close_out oc);
  let stale_allow = result.Analysis.Engine.stale_allow in
  let stale_keep = result.Analysis.Engine.stale_keep in
  let report_stale table what =
    List.iter
      (fun pat ->
        Printf.eprintf
          "mwlint: %s: stale %s entry %s (%s — delete it from \
           lib/analysis/rules.ml)\n"
          (if !fail_stale then "error" else "warning")
          table pat what)
  in
  report_stale "lock_free_allow" "matches no thread-shared cell" stale_allow;
  report_stale "export_keep" "excuses no unused export" stale_keep;
  (match !format with
  | "json" ->
    List.iter (fun f -> print_endline (Analysis.Finding.to_json f)) findings
  | _ ->
    List.iter (fun f -> print_endline (Analysis.Finding.to_string f)) findings);
  if !format <> "json" then
    Printf.printf "mwlint: %d file(s), %d finding(s)\n" (List.length files)
      (List.length findings);
  if findings <> [] || (!fail_stale && (stale_allow <> [] || stale_keep <> []))
  then exit 1
