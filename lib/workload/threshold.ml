type verdict = {
  s : int;
  t : int;
  r : int;
  predicted_possible : bool;
  atomic : bool;
  mwa_failure : string option;
  witness : string option;
}

let attack ~register ~s ~t ~r =
  let witness, mwa_failure =
    Hunter.run_shape ~register ~s ~t ~w:2 ~r ~seed:1 Hunter.Starvation
  in
  {
    s;
    t;
    r;
    predicted_possible = Quorums.Bounds.w2r1_possible ~s ~t ~r;
    atomic = witness = None;
    mwa_failure;
    witness = Option.map Checker.Witness.short witness;
  }

let sweep ~register ~s ~t ~r_max =
  List.init (r_max - 1) (fun i -> attack ~register ~s ~t ~r:(i + 2))

let boundary_matches v = v.predicted_possible = v.atomic

let pp_verdict ppf v =
  Format.fprintf ppf "S=%d t=%d R=%d predicted=%s measured=%s%s" v.s v.t v.r
    (if v.predicted_possible then "possible" else "impossible")
    (if v.atomic then "atomic" else "violated")
    (match (v.witness, v.mwa_failure) with
    | Some w, Some m -> Printf.sprintf " (%s, %s)" w m
    | Some w, None -> Printf.sprintf " (%s)" w
    | None, Some m -> Printf.sprintf " (%s)" m
    | None, None -> "")
