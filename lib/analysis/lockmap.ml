(* Lock-ownership inference over the shared cells found by [Escape].

   For every shared cell, collect the set of locks held at each access
   site.  "Held" is the lexical held set recorded by the walker widened
   by an interprocedural *held-at-entry* fixpoint:

     H(f) = U over call sites (f called from g with lexical set L)
            of (L U H(g))

   The union is optimistic on purpose: if ANY caller holds the lock we
   credit the callee's accesses with it.  An instance-blind lexical
   analysis cannot prove the bare caller runs concurrently (the repo's
   simulators call handler functions single-threaded that the server
   calls on its event loop), so pessimism here would drown the
   report in false positives.  The spawn frames have no callers, so
   spawned closures correctly start with nothing held.  The loop frames
   have none either, but start holding the pseudo-lock [<loop>]: the
   event loop runs one closure at a time on one thread, so its code
   excludes other loop code exactly as one mutex would.

   Ownership is majority co-occurrence: the lock held at the most
   sites owns the cell.  Full coverage lands in the --lock-map
   artifact; partial coverage is a SHARED-ACCESS finding at each
   uncovered site (including the two-locks-in-two-modules case — the
   sites under the minority lock are "covered by the wrong lock",
   which does not exclude the majority sites); zero coverage is one
   finding per cell — ATOMIC-DISCIPLINE if the cell is a bool signal
   flag, SHARED-ACCESS otherwise. *)

module SS = Set.Make (String)

(* Held-at-entry fixpoint.  Deterministic under any iteration order:
   pure union converges to the least fixpoint of a monotone map. *)
let entry_held (st : Rules.state) =
  let h = Hashtbl.create 64 in
  Hashtbl.iter
    (fun key _ -> Hashtbl.replace h key (SS.of_list (Escape.loop_lock key)))
    st.funcs;
  let get key = Option.value ~default:SS.empty (Hashtbl.find_opt h key) in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun caller (s : Rules.fsum) ->
        let hc = get caller in
        List.iter
          (fun (callee, held, _) ->
            match Escape.lookup st ~f_mod:s.Rules.f_mod callee with
            | None -> ()
            | Some k ->
              let cur = get k in
              let next = SS.union cur (SS.union (SS.of_list held) hc) in
              if not (SS.equal next cur) then begin
                Hashtbl.replace h k next;
                changed := true
              end)
          s.Rules.f_calls)
      st.funcs
  done;
  get

type csite = { cs_access : Rules.access; cs_held : SS.t }

let site_order a b =
  let sa = a.cs_access.Rules.a_site and sb = b.cs_access.Rules.a_site in
  compare
    (sa.Rules.s_file, sa.Rules.s_line, sa.Rules.s_col)
    (sb.Rules.s_file, sb.Rules.s_line, sb.Rules.s_col)

(* All counting sites of every shared cell, with effective held sets. *)
let collect_sites (st : Rules.state) shared =
  let h = entry_held st in
  let tbl = Hashtbl.create 32 in
  Hashtbl.iter
    (fun key (s : Rules.fsum) ->
      List.iter
        (fun (a : Rules.access) ->
          if Hashtbl.mem shared a.Rules.a_cell && Escape.access_counts st key a
          then begin
            let eff = SS.union (SS.of_list a.Rules.a_held) (h key) in
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt tbl a.Rules.a_cell)
            in
            Hashtbl.replace tbl a.Rules.a_cell
              ({ cs_access = a; cs_held = eff } :: prev)
          end)
        s.Rules.f_accesses)
    st.funcs;
  Hashtbl.iter
    (fun cell sites -> Hashtbl.replace tbl cell (List.sort site_order sites))
    tbl;
  tbl

let finding ~rule (a : Rules.access) msg =
  let s = a.Rules.a_site in
  {
    Finding.rule;
    severity = Rules.severity_of rule;
    file = s.Rules.s_file;
    line = s.Rules.s_line;
    col = s.Rules.s_col;
    message = msg;
  }

(* The inferred owner: the lock held at the most sites; ties break to
   the lexicographically smallest name so the verdict is stable. *)
let infer_owner sites =
  let locks =
    List.fold_left (fun acc cs -> SS.union acc cs.cs_held) SS.empty sites
  in
  SS.fold
    (fun lock best ->
      let n =
        List.length (List.filter (fun cs -> SS.mem lock cs.cs_held) sites)
      in
      match best with
      | Some (_, bn) when bn >= n -> best
      | _ -> Some (lock, n))
    locks None

type verdict =
  | Guarded of string * int  (* owner, site count *)
  | LockFree of string * string  (* allowlist pattern, justification *)
  | Findings of Finding.t list

let judge cell (info : Rules.cellinfo) sites =
  match Rules.allow_entry cell with
  | Some (pat, why) -> LockFree (pat, why)
  | None -> (
    let n = List.length sites in
    match infer_owner sites with
    | None | Some (_, 0) ->
      (* No lock anywhere near the cell. *)
      if info.Rules.c_bool then
        let anchor =
          match
            List.find_opt (fun cs -> cs.cs_access.Rules.a_write) sites
          with
          | Some cs -> cs.cs_access
          | None -> (List.hd sites).cs_access
        in
        Findings
          [
            finding ~rule:Rules.atomic_discipline anchor
              (Printf.sprintf
                 "plain bool flag %s is accessed from multiple threads (%d \
                  sites, no lock): plain loads/stores have no visibility \
                  guarantee — make it Atomic.t (Atomic.get / Atomic.set)"
                 cell n);
          ]
      else
        Findings
          [
            finding ~rule:Rules.shared_access (List.hd sites).cs_access
              (Printf.sprintf
                 "thread-shared mutable cell %s is accessed at %d sites \
                  with no lock ever held: guard it with one mutex, make it \
                  Atomic.t, or add a justified lock_free_allow entry"
                 cell n);
          ]
    | Some (owner, covered) ->
      if covered = n then Guarded (owner, n)
      else
        Findings
          (List.filter_map
             (fun cs ->
               if SS.mem owner cs.cs_held then None
               else if SS.is_empty cs.cs_held then
                 Some
                   (finding ~rule:Rules.shared_access cs.cs_access
                      (Printf.sprintf
                         "%s is guarded by %s at %d of %d sites, bare here: \
                          take %s around this access (or justify the cell \
                          as lock-free)"
                         cell owner covered n owner))
               else
                 Some
                   (finding ~rule:Rules.shared_access cs.cs_access
                      (Printf.sprintf
                         "%s is guarded by %s at %d of %d sites, but this \
                          site holds {%s}: two different locks do not \
                          exclude each other — pick one owner"
                         cell owner covered n
                         (String.concat ", " (SS.elements cs.cs_held)))))
             sites))

let render_map ~guarded ~lock_free ~flagged ~unshared =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# mwlint lock map: inferred lock -> guarded cells\n";
  Buffer.add_string b
    "# a cell is listed when every thread-shared access site holds the \
     lock\n";
  let by_lock = Hashtbl.create 16 in
  List.iter
    (fun (owner, cell, n) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_lock owner) in
      Hashtbl.replace by_lock owner ((cell, n) :: prev))
    guarded;
  let locks = List.sort_uniq compare (List.map (fun (o, _, _) -> o) guarded) in
  List.iter
    (fun lock ->
      Buffer.add_string b (Printf.sprintf "\n%s:\n" lock);
      List.iter
        (fun (cell, n) ->
          Buffer.add_string b (Printf.sprintf "  %s (%d sites)\n" cell n))
        (List.sort compare (Hashtbl.find_all by_lock lock |> List.concat)))
    locks;
  if lock_free <> [] then begin
    Buffer.add_string b "\n# lock-free (allowlisted, justified)\n";
    List.iter
      (fun (cell, why) ->
        Buffer.add_string b (Printf.sprintf "%s: %s\n" cell why))
      (List.sort compare lock_free)
  end;
  Buffer.add_string b
    (Printf.sprintf "\n# shared cells with findings: %d\n" flagged);
  Buffer.add_string b
    (Printf.sprintf "# tracked cells not thread-shared: %d\n" unshared);
  Buffer.contents b

let infer (st : Rules.state) =
  let shared = Escape.shared_cells st in
  let sites_tbl = collect_sites st shared in
  let cells =
    List.sort compare
      (Hashtbl.fold (fun cell _ acc -> cell :: acc) shared [])
  in
  let guarded = ref [] and lock_free = ref [] and findings = ref [] in
  let used = ref SS.empty in
  let flagged = ref 0 in
  List.iter
    (fun cell ->
      match Hashtbl.find_opt sites_tbl cell with
      | None | Some [] -> ()
      | Some sites -> (
        let info = Hashtbl.find st.cells cell in
        match judge cell info sites with
        | Guarded (owner, n) -> guarded := (owner, cell, n) :: !guarded
        | LockFree (pat, why) ->
          used := SS.add pat !used;
          lock_free := (cell, why) :: !lock_free
        | Findings fs ->
          incr flagged;
          findings := fs @ !findings))
    cells;
  let unshared =
    Hashtbl.fold
      (fun cell _ acc -> if Hashtbl.mem shared cell then acc else acc + 1)
      st.cells 0
  in
  let map =
    render_map ~guarded:(List.rev !guarded) ~lock_free:!lock_free
      ~flagged:!flagged ~unshared
  in
  let patterns = List.map fst Rules.lock_free_allow in
  (List.rev !findings, map, List.filter (fun p -> not (SS.mem p !used)) patterns)
