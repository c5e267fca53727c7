type result = {
  findings : Finding.t list;
  lock_map : string;
  stale_allow : string list;
  stale_keep : string list;
}

let run ?(intfs = []) ?(export_keep = Rules.export_keep) sources =
  let st = Rules.create_state () in
  (* Decl pre-pass over ALL sources first: cross-module field accesses
     must resolve to their declaring module whatever the file order. *)
  List.iter (Rules.collect_decls st) sources;
  List.iter (Rules.analyze_file st) sources;
  let shared, lock_map, stale_allow = Lockmap.infer st in
  let unused, stale_keep = Exports.check ~keep:export_keep ~intfs sources in
  let all =
    Rules.lock_order_findings st @ Rules.findings st @ shared @ unused
  in
  {
    findings = List.sort_uniq Finding.compare all;
    lock_map;
    stale_allow;
    stale_keep;
  }

let analyze sources = (run sources).findings
