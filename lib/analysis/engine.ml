type result = {
  findings : Finding.t list;
  lock_map : string;
  stale_allow : string list;
}

let run sources =
  let st = Rules.create_state () in
  (* Decl pre-pass over ALL sources first: cross-module field accesses
     must resolve to their declaring module whatever the file order. *)
  List.iter (Rules.collect_decls st) sources;
  List.iter (Rules.analyze_file st) sources;
  let shared, lock_map, stale_allow = Lockmap.infer st in
  let all = Rules.lock_order_findings st @ Rules.findings st @ shared in
  { findings = List.sort_uniq Finding.compare all; lock_map; stale_allow }

let analyze sources = (run sources).findings

let analyze_string ~path src = analyze [ Source.parse_string ~path src ]
