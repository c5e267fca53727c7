(* Escape/capture analysis: which mutable cells are thread-shared.

   The walker records every closure passed to Thread.create /
   Domain.spawn / Pool entry points under a synthetic [<spawn:LINE>]
   summary, and bare function arguments to those calls as calls from
   that summary.  Each spawn SITE is a thread origin; the main thread
   is one more origin, rooted at every summary no spawn frame can
   reach.

   A cell is thread-shared when its accesses span at least TWO
   origins: a race needs two threads.  One origin is not enough —
   a cell touched only by the closure spawned at one site (a worker's
   private state, a per-thread slot array where thread i owns index i)
   has no second thread to race with that the analysis can name.  The
   cost is deliberate: N threads spawned at the same syntactic site
   count as one origin, so same-site sibling races are out of scope —
   that is the per-thread-slot pattern the repo uses everywhere, and
   flagging it would drown the report (the pre-refinement run produced
   171 findings, nearly all of them exactly this shape).

   Accesses confined to the creating summary of a ref/array/table
   binding never count at all: initialization before publication and
   post-join reads are single-threaded by construction. *)

(* substring search without a regex dependency *)
let find_sub ?(from = 0) hay pat =
  let n = String.length hay and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub hay i m = pat then Some i
    else go (i + 1)
  in
  go from

let spawn_tag = "<spawn:"

(* The thread origin of a spawn-frame-derived key: the prefix ending at
   the LAST spawn tag.  A local function defined inside a spawned
   closure ([A.f.<spawn:10>.echo]) runs on the thread spawned at that
   site, not on a thread of its own; a spawn inside a spawn
   ([A.f.<spawn:10>.<spawn:20>]) is a genuinely new thread. *)
let origin_of_key key =
  let rec last_tag from acc =
    match find_sub ~from key spawn_tag with
    | None -> acc
    | Some i -> last_tag (i + 1) (Some i)
  in
  match last_tag 0 None with
  | None -> None
  | Some i -> (
    (* extend to the closing '>' of the tag *)
    match String.index_from_opt key i '>' with
    | Some j -> Some (String.sub key 0 (j + 1))
    | None -> Some key)

(* Resolve a recorded callee name to a summary key.  [resolve] in the
   walker already qualifies unqualified names with the caller's module,
   so the residual cases are qualified cross-module calls where the
   target module is nested: [Outq.consume] recorded inside [Server]
   must find the [Server.Outq.consume] summary.  Try the name as-is,
   then prefixed with successively shorter prefixes of the caller's
   module path. *)
let lookup (st : Rules.state) ~f_mod callee =
  match Hashtbl.find_opt st.lookups (f_mod, callee) with
  | Some r -> r
  | None ->
    let r =
      if Hashtbl.mem st.funcs callee then Some callee
      else begin
        let parts = String.split_on_char '.' f_mod in
        let rec try_prefix rev_parts =
          match rev_parts with
          | [] ->
            (* Cross-library call written without the wrapper module
               ([Keyspace.apply] from lib/transport must find
               [Registers.Keyspace.apply]): a dotted callee may match
               a key by whole-component suffix — but only a UNIQUE
               match counts.  [Engine.run] matches both the simulation
               engine and the lint engine; guessing wires the caller
               into an unrelated library, so an ambiguous edge is
               dropped instead.  Unqualified names are excluded
               outright or every [run] in the tree would alias. *)
            if String.contains callee '.' then begin
              let suffix = "." ^ callee in
              let matches =
                Hashtbl.fold
                  (fun k _ acc ->
                    if String.ends_with ~suffix k then k :: acc else acc)
                  st.funcs []
              in
              match matches with [ k ] -> Some k | _ -> None
            end
            else None
          | _ ->
            let prefix = String.concat "." (List.rev rev_parts) in
            let k = prefix ^ "." ^ callee in
            if Hashtbl.mem st.funcs k then Some k
            else try_prefix (List.tl rev_parts)
        in
        try_prefix (List.rev parts)
      end
    in
    Hashtbl.replace st.lookups (f_mod, callee) r;
    r

let callees (st : Rules.state) (s : Rules.fsum) =
  List.filter_map
    (fun (callee, _, _) -> lookup st ~f_mod:s.Rules.f_mod callee)
    s.Rules.f_calls

(* Mark everything reachable from [roots] with [origin]. *)
let mark_reachable (st : Rules.state) origins ~origin roots =
  let seen = Hashtbl.create 64 in
  let rec visit key =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      let prev = Option.value ~default:[] (Hashtbl.find_opt origins key) in
      Hashtbl.replace origins key (origin :: prev);
      match Hashtbl.find_opt st.funcs key with
      | None -> ()
      | Some s -> List.iter visit (callees st s)
    end
  in
  List.iter visit roots

(* origins : summary key -> distinct thread origins that can execute
   it.  Every summary derived from a spawn frame (the frame itself and
   local functions defined inside it) roots the origin of its spawn
   site; the main thread is rooted at every summary no spawn frame
   reaches (anything NOT spawn-reachable runs, if at all, on the
   spawning side). *)
let thread_origins (st : Rules.state) =
  let origins = Hashtbl.create 64 in
  let by_origin = Hashtbl.create 16 in
  Hashtbl.iter
    (fun key _ ->
      match origin_of_key key with
      | None -> ()
      | Some o ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_origin o) in
        Hashtbl.replace by_origin o (key :: prev))
    st.funcs;
  let origin_list =
    List.sort compare (Hashtbl.fold (fun o _ acc -> o :: acc) by_origin [])
  in
  List.iter
    (fun o ->
      mark_reachable st origins ~origin:o
        (List.sort compare (Hashtbl.find by_origin o)))
    origin_list;
  let spawn_reached = Hashtbl.copy origins in
  let main_roots =
    Hashtbl.fold
      (fun key _ acc ->
        if Hashtbl.mem spawn_reached key then acc else key :: acc)
      st.funcs []
  in
  mark_reachable st origins ~origin:"<main>" (List.sort compare main_roots);
  origins

(* An access counts unless it sits in the cell's creating summary. *)
let access_counts (st : Rules.state) key (a : Rules.access) =
  match Hashtbl.find_opt st.cells a.Rules.a_cell with
  | None -> false
  | Some info -> (
    match info.Rules.c_creator with
    | Some creator -> creator <> key
    | None -> true)

module SS = Set.Make (String)

(* A function-local binding is fresh per invocation: two threads both
   CALLING its creator get two distinct cells, not a race.  The only
   way one instance becomes multi-threaded is capture by a closure
   spawned within the creator's lexical scope — so for local binding
   cells, only origins that are spawn sites nested under the creator
   stay distinct; every other origin (the creator's callers, wherever
   they run) collapses into one "outside" origin.  Module-global
   bindings and record fields keep their global origins. *)
let cell_origin (info : Rules.cellinfo) o =
  match info.Rules.c_creator with
  | Some creator
    when (not info.Rules.c_toplevel)
         && not (String.starts_with ~prefix:(creator ^ ".") o) ->
    "<outside>"
  | _ -> o

let shared_cells (st : Rules.state) =
  let origins = thread_origins st in
  let per_cell = Hashtbl.create 64 in
  Hashtbl.iter
    (fun key s ->
      match Hashtbl.find_opt origins key with
      | None | Some [] -> ()
      | Some os ->
        List.iter
          (fun a ->
            if access_counts st key a then begin
              let cell = a.Rules.a_cell in
              match Hashtbl.find_opt st.cells cell with
              | None -> ()
              | Some info ->
                let os = SS.of_list (List.map (cell_origin info) os) in
                let prev_os, prev_w =
                  Option.value ~default:(SS.empty, false)
                    (Hashtbl.find_opt per_cell cell)
                in
                Hashtbl.replace per_cell cell
                  (SS.union prev_os os, prev_w || a.Rules.a_write)
            end)
          s.Rules.f_accesses)
    st.funcs;
  let shared = Hashtbl.create 32 in
  Hashtbl.iter
    (fun cell (os, has_write) ->
      (* A race needs a writer: arrays and tables built once and read
         from every thread ([Mux.conns]) are immutable
         in every execution that matters here. *)
      if has_write && SS.cardinal os >= 2 then Hashtbl.replace shared cell ())
    per_cell;
  shared
