(* The rule walker: one recursive pass per file that threads a *lexical
   held-locks* state through every expression, emits the local findings
   (BLOCKING-UNDER-LOCK, MONOTONIC-TIME, RAW-IO, CONDITION-WAIT-LOOP,
   CATCH-ALL-EXN) on the way, and records per-function summaries
   (direct lock acquisitions, lock-nesting edges, resolved calls with
   the held set at the call site) from which the engine later builds
   the inter-module LOCK-ORDER graph.

   The held-lock tracking is deliberately lexical and conservative:

   - [Mutex.protect l (fun () -> e)] holds [l] over [e];
   - [Mutex.lock l; ...; Mutex.unlock l] holds [l] over the sequence
     between the two calls (threaded through [if]/[match] scrutinees,
     sequences and loops; branches are assumed lock-balanced);
   - anonymous closures passed as arguments are assumed to run at the
     call site (true for the [List.iter (fun ...)]-style iteration the
     repo uses), so they inherit the held set;
   - [let f = fun ... ->] bindings are *function definitions*: their
     bodies are walked with an empty held set and get their own
     summary, and calls to them propagate their transitive lock
     acquisitions into the caller's context;
   - closures passed to [Thread.create] / [Domain.spawn] start on a
     fresh stack: they are walked with an empty held set under an
     anonymous summary that no call site can reach, so their locks
     never leak into the spawner's acquisition set (their own nesting
     edges still enter the global lock-order graph).  Closures handed
     to the event loop ([loop_calls]) get a [<loop:LINE>] summary. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Rule catalog                                                        *)
(* ------------------------------------------------------------------ *)

let lock_order = "LOCK-ORDER"

let blocking_under_lock = "BLOCKING-UNDER-LOCK"

let monotonic_time = "MONOTONIC-TIME"

let raw_io = "RAW-IO"

let condition_wait_loop = "CONDITION-WAIT-LOOP"

let catch_all_exn = "CATCH-ALL-EXN"

let shared_access = "SHARED-ACCESS"

let atomic_discipline = "ATOMIC-DISCIPLINE"

let unused_export = "UNUSED-EXPORT"

let all_rules =
  [
    ( lock_order,
      Finding.Error,
      "mutex acquisition order must be acyclic across the repo" );
    ( blocking_under_lock,
      Finding.Error,
      "no blocking syscall lexically inside a held-lock region" );
    ( monotonic_time,
      Finding.Warning,
      "deadlines and elapsed times use Clock.now, not Unix.gettimeofday" );
    ( raw_io,
      Finding.Warning,
      "raw socket reads/writes live only in lib/transport/netio.ml" );
    ( condition_wait_loop,
      Finding.Error,
      "Condition.wait only inside a while predicate-recheck loop" );
    ( catch_all_exn,
      Finding.Warning,
      "no catch-all exception handler swallowing I/O failures" );
    ( shared_access,
      Finding.Error,
      "thread-shared mutable state is accessed under its inferred owner \
       lock (or carries a lock-free justification)" );
    ( atomic_discipline,
      Finding.Error,
      "cross-thread signal flags are Atomic.t and atomic RMW uses \
       compare_and_set / fetch_and_add" );
    ( unused_export,
      Finding.Warning,
      "every exported lib value and type has a user outside its module, \
       and every lib module a user outside test/" );
  ]

let severity_of rule =
  match List.find_opt (fun (r, _, _) -> r = rule) all_rules with
  | Some (_, sev, _) -> sev
  | None -> Finding.Error

(* ------------------------------------------------------------------ *)
(* Configuration: call sets and path-scoped allowlists                 *)
(* ------------------------------------------------------------------ *)

(* Whole-component suffix match, so rules behave identically on
   "lib/transport/mux.ml" and "/abs/prefix/lib/transport/mux.ml". *)
let path_matches ~suffix path =
  path = suffix
  || String.length path > String.length suffix
     && String.ends_with ~suffix:("/" ^ suffix) path

let in_files files path =
  List.exists (fun suffix -> path_matches ~suffix path) files

(* RAW-IO: the single EINTR-retrying choke point for socket I/O.  The
   reactor widened the set: readiness waits ([Unix.select]) and accepts
   now count as raw I/O too, because EINTR handling, EAGAIN semantics
   and the FD_SETSIZE=1024 select cliff all live behind Netio's
   non-blocking variants and pollers — a bare select or accept elsewhere
   reintroduces exactly the bugs the choke point exists to contain. *)
let raw_io_files = [ "lib/transport/netio.ml" ]

let raw_io_calls =
  [
    "Unix.read";
    "Unix.write";
    "Unix.single_write";
    "Unix.recv";
    "Unix.send";
    "Unix.select";
    "Unix.accept";
  ]

(* BLOCKING-UNDER-LOCK: calls that can park the thread indefinitely.
   Netio's [*_nb] variants are deliberately absent — they return EAGAIN
   instead of parking, which is the reactor's whole point — while its
   readiness wait is exactly as blocking as the poll it wraps. *)
let blocking_calls =
  raw_io_calls
  @ [
      "Unix.sleep";
      "Unix.sleepf";
      "Unix.connect";
      "Netio.read";
      "Netio.write_all";
      "Netio.Poller.wait";
      "Thread.delay";
      "Thread.join";
    ]

(* CATCH-ALL-EXN fires only when the guarded body touches these
   modules: a wildcard around pure code is style, a wildcard around
   I/O swallows link failures (the exact bug class behind the PR-4
   EINTR fix). *)
let io_modules = [ "Unix"; "Netio" ]

(* Calls whose closure/function arguments run on another thread.  Used
   by the escape pass to seed spawn-reachability: any mutable cell
   touched from code reachable from one of these arguments is
   thread-shared.  Pool's entry points count — their thunks run on
   worker domains. *)
let spawn_calls =
  [
    "Thread.create";
    "Domain.spawn";
    "Pool.run_tasks";
    "Pool.map";
    "Pool.map_reduce";
  ]

(* Calls whose closure and function arguments run on the process's one
   event loop (Transport.Loop), whatever thread made the call.  The
   escape pass gives them one thread origin, "<loop>", as it does the
   then-branch of [if Loop.on_loop () then ...] and the spawn in
   Transport.Loop that starts the loop's own thread. *)
let loop_calls =
  [ "Loop.submit"; "Loop.await"; "Loop.call"; "Loop.watch"; "Loop.add_ticker" ]

(* [Loop.submit] from another module, [Transport.Loop.submit] once
   [resolve] qualifies a bare [submit] inside Loop itself. *)
let names_one_of calls path =
  List.exists (fun c -> String.ends_with ~suffix:c path) calls

(* SHARED-ACCESS lock-free allowlist: (cell, justification).  A cell is
   the declaring-module-qualified name of a mutable field, or the
   function-qualified name of a ref/array/table binding.  Every entry
   silences the cell globally and MUST carry a justification — these
   are reviewed design decisions (CAS retry loops, single-owner-thread
   state), not suppressions of unread findings.  The `--lock-map`
   artifact prints this table so the decisions stay visible, and an
   entry that justifies no thread-shared cell is stale: `--fail-stale`
   fails on it, so the table shrinks when the code it excused goes. *)
let lock_free_allow : (string * string) list =
  [
    (* -- transport: documented single-owner designs ---------------- *)
    ( "Transport.Check_sink.ports",
      "built before start (enforced by invalid_arg); the checker \
       thread is the sole reader afterwards — the completion path \
       itself is the CAS stack (queue/inflight are Atomic.t)" );
    ( "Transport.Check_sink.next",
      "a port's op-id counter: only [completed] reads or writes it, and \
       a port's completions never overlap: its client's operation \
       completes on the event loop, and the client thread publishes an \
       aborted one only after that operation's exec has returned" );
    ( "Transport.Codec.Stream.*",
      "a decode stream belongs to the one thread that reads its \
       connection: the process's event loop, for a server connection \
       and a mux link alike" );
    ( "Transport.Netio.Poller.*",
      "a poller belongs to the one thread that waits in it: the \
       process's event loop (Transport.Loop) has the only one" );
    ( "Simulation.Heap.*",
      "a heap has one owner: a simulation engine's event queue belongs \
       to that engine's thread, and a mux's staged-frame heap to the \
       process's event loop, the only thread that stages or releases \
       a frame" );
    (* -- registers: served state's off-thread edges ----------------- *)
    ( "Registers.Replica.current",
      "bare sites are load, filling a fresh instance on the thread \
       that recovers a killed server before Server.start hands it to \
       the event loop; all in-service access runs on the loop" );
    ( "Registers.Replica.vector",
      "bare sites are load, filling a fresh instance on the thread \
       that recovers a killed server before Server.start hands it to \
       the event loop; all in-service access runs on the loop" );
    ( "Registers.Replica.updated",
      "bare sites are load, filling a fresh instance on the thread \
       that recovers a killed server before Server.start hands it to \
       the event loop; all in-service access runs on the loop" );
    (* -- single-threaded planes driven from worker harnesses -------- *)
    ( "Simulation.*",
      "discrete-event simulation instances are single-threaded by \
       design; each worker/test owns its engine outright" );
    ( "Checker.*",
      "a checker instance is thread-confined: each soak/worker owns \
       its checker, or feeds it through Check_sink's single checker \
       thread" );
    ( "Histories.Recorder.*",
      "one recorder per client thread; merges read them after join" );
    ( "Workload.Stats.Hist.*",
      "per-thread histograms, merged after the workers join" );
  ]

(* UNUSED-EXPORT keep list: (export, justification).  An export no
   module outside its own reaches (or a module only test/ reaches) is
   dead surface to delete, unless it is here for a reason a reviewer
   can check.  Patterns as in [pattern_matches] below; an entry that
   excuses no finding is stale and `--fail-stale` fails on it.
   An excuse keyed by line would drift with every edit, so the
   exceptions live here by name. *)
let export_keep : (string * string) list =
  [
    ( "Impossibility.Realizability.*",
      "certifies that every execution the W1R2 chain argument builds is \
       legal under asynchrony with S - t replies per round; the proof's \
       soundness check, run by the test suite over the chains" );
  ]

(* An allowlist or keep entry is an exact name or a module prefix
   ("Simulation.*", which also matches the module "Simulation"
   itself): prefixes exist so a subsystem whose whole design is
   single-owner (the simulation plane, the checkers) is one reviewed
   decision instead of a dozen copies of it. *)
let pattern_matches pat name =
  pat = name
  || String.ends_with ~suffix:".*" pat
     &&
     let m = String.sub pat 0 (String.length pat - 2) in
     name = m || String.starts_with ~prefix:(m ^ ".") name

let allow_entry cell =
  List.find_opt (fun (pat, _) -> pattern_matches pat cell) lock_free_allow

(* ------------------------------------------------------------------ *)
(* Summaries shared across files (for LOCK-ORDER)                      *)
(* ------------------------------------------------------------------ *)

type site = { s_file : string; s_line : int; s_col : int }

(* One read or write of a tracked mutable cell, with the lexical held
   set at the point of access.  The lockmap pass later widens the held
   set with the interprocedural held-at-entry fixpoint. *)
type access = {
  a_cell : string;
  a_write : bool;
  a_bool_lit : bool;  (* write of a literal true/false *)
  a_site : site;
  a_held : string list;
}

type fsum = {
  f_mod : string;  (* module path at definition, for callee lookup *)
  mutable f_acquires : string list;  (* direct lock acquisitions *)
  mutable f_edges : (string * string * site) list;  (* held -> acquired *)
  mutable f_calls : (string * string list * site) list;  (* callee, held *)
  mutable f_accesses : access list;  (* tracked-cell reads/writes *)
}

(* A record-label declaration seen during the decl pre-pass.  EVERY
   label is recorded, not just mutable/container ones: resolution must
   see immutable same-named labels or [stopping : bool Atomic.t] in
   Server resolves to Mux's plain [mutable stopping : bool] and the
   server file inherits another module's findings.  [d_tracked] marks
   the labels whose accesses the walker actually records. *)
type decl = { d_mod : string; d_bool : bool; d_tracked : bool }

(* Identity + metadata of a tracked mutable cell.  [c_creator] is the
   summary key of the binding that created a ref/array/table cell:
   accesses inside the creator are initialization-before-publication
   (or post-join reads) and never count as shared-access sites.  Field
   cells have no creator.  [c_toplevel] distinguishes module-global
   bindings (shared by anything) from function-local ones (fresh per
   invocation — only a spawn nested under the creator can share
   them). *)
type cellinfo = {
  c_bool : bool;
  c_creator : string option;
  c_toplevel : bool;
}

type state = {
  funcs : (string, fsum) Hashtbl.t;
  decls : (string, decl) Hashtbl.t;  (* label -> decls (multi) *)
  cells : (string, cellinfo) Hashtbl.t;
  lookups : (string * string, string option) Hashtbl.t;
      (* (caller module, callee) -> resolved summary key.  Callee
         resolution falls back to an O(|funcs|) suffix scan for
         cross-library calls; the reachability and held-set fixpoints
         resolve the same edges over and over, so cache per state
         (NOT globally — test fixtures reuse module names across
         independent states). *)
  mutable findings : Finding.t list;
}

let create_state () =
  {
    funcs = Hashtbl.create 64;
    decls = Hashtbl.create 64;
    cells = Hashtbl.create 64;
    lookups = Hashtbl.create 64;
    findings = [];
  }

(* ------------------------------------------------------------------ *)
(* Small AST helpers                                                   *)
(* ------------------------------------------------------------------ *)

let lid_path lid = String.concat "." (Longident.flatten lid)

(* Normalise [Stdlib.Mutex.lock] and friends to their short form. *)
let strip_stdlib path =
  match String.length path > 7 && String.sub path 0 7 = "Stdlib." with
  | true -> String.sub path 7 (String.length path - 7)
  | false -> path

let head_ident e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (strip_stdlib (lid_path txt))
  | _ -> None

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let col_of (loc : Location.t) =
  let s = loc.Location.loc_start in
  s.Lexing.pos_cnum - s.Lexing.pos_bol + 1

let rec is_bool_lit e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident ("true" | "false"); _ }, None)
    ->
    true
  | Pexp_constraint (e', _) -> is_bool_lit e'
  | _ -> false

(* Head constructor of a core type: ["bool"], ["array"], ["Hashtbl.t"],
   ["Atomic.t"], ...  Used to classify record labels in the decl
   pre-pass — no typing environment, so this is syntactic. *)
let rec type_head t =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) ->
    strip_stdlib (String.concat "." (Longident.flatten txt))
  | Ptyp_poly (_, t') -> type_head t'
  | _ -> ""

(* Immutable labels of these types still hold mutable state: the
   container contents.  Buffer is deliberately absent — the repo's
   Buffers are either owner-thread staging or already lock-guarded,
   and Buffer.add_* appears in too many formatting helpers to track
   without drowning the report. *)
let container_heads = [ "array"; "bytes"; "Bytes.t"; "Hashtbl.t"; "Queue.t" ]

(* Container operations, classified by whether they mutate.  An
   application of one of these to a tracked ref/array/table binding is
   an access of that cell ([a.(i)] and [s.[i]] parse to Array.get /
   String.get applications, so index syntax is covered for free). *)
let container_write_ops =
  [
    "Array.set";
    "Array.unsafe_set";
    "Array.fill";
    "Array.blit";
    "Bytes.set";
    "Bytes.unsafe_set";
    "Bytes.fill";
    "Bytes.blit";
    "Bytes.blit_string";
    "Hashtbl.add";
    "Hashtbl.replace";
    "Hashtbl.remove";
    "Hashtbl.clear";
    "Hashtbl.reset";
    "Hashtbl.filter_map_inplace";
    "Queue.push";
    "Queue.add";
    "Queue.pop";
    "Queue.take";
    "Queue.take_opt";
    "Queue.clear";
    "Queue.transfer";
  ]

let container_read_ops =
  [
    "Array.get";
    "Array.unsafe_get";
    "Array.length";
    "Array.iter";
    "Array.iteri";
    "Array.fold_left";
    "Array.map";
    "Array.mapi";
    "Array.to_list";
    "Array.copy";
    "Array.sub";
    "Bytes.get";
    "Bytes.unsafe_get";
    "Bytes.length";
    "Bytes.sub";
    "Bytes.sub_string";
    "Bytes.to_string";
    "Hashtbl.find";
    "Hashtbl.find_opt";
    "Hashtbl.find_all";
    "Hashtbl.mem";
    "Hashtbl.length";
    "Hashtbl.iter";
    "Hashtbl.fold";
    "Hashtbl.to_seq";
    "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
    "Queue.peek";
    "Queue.peek_opt";
    "Queue.top";
    "Queue.length";
    "Queue.is_empty";
    "Queue.iter";
    "Queue.fold";
  ]

let container_access path =
  if List.mem path container_write_ops then Some true
  else if List.mem path container_read_ops then Some false
  else None

(* [let x = ref/Array.make/Hashtbl.create ... ] — a binding that
   creates a fresh mutable cell.  Returns [Some is_bool_flag]. *)
let creation_of e =
  match e.pexp_desc with
  | Pexp_apply (hd, args) -> (
    match head_ident hd with
    | Some "ref" -> (
      match args with [ (_, v) ] -> Some (is_bool_lit v) | _ -> None)
    | Some
        ( "Array.make" | "Array.init" | "Array.create_float"
        | "Bytes.create" | "Bytes.make" | "Hashtbl.create" | "Queue.create"
          ) ->
      Some false
    | _ -> None)
  | _ -> None

let rec is_record_literal e =
  match e.pexp_desc with
  | Pexp_record _ -> true
  | Pexp_constraint (e', _) -> is_record_literal e'
  | _ -> false

(* Syntactic identity of an Atomic.t location, for the get-then-set
   RMW check: field accesses compare by label, plain idents by path. *)
let rec atomic_target e =
  match e.pexp_desc with
  | Pexp_field (_, { txt; _ }) -> Some ("#" ^ Longident.last txt)
  | Pexp_ident { txt; _ } -> Some (lid_path txt)
  | Pexp_constraint (e', _) -> atomic_target e'
  | _ -> None

let contains_atomic_get tgt v =
  let found = ref false in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_apply (hd, [ (_, a) ]) when head_ident hd = Some "Atomic.get" ->
      if atomic_target a = Some tgt then found := true
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it v;
  !found

let rec is_wild p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (q, _) | Ppat_constraint (q, _) -> is_wild q
  | Ppat_or (a, b) -> is_wild a || is_wild b
  | _ -> false

let rec exn_wild p =
  match p.ppat_desc with
  | Ppat_exception q -> is_wild q
  | Ppat_or (a, b) -> exn_wild a || exn_wild b
  | Ppat_constraint (q, _) -> exn_wild q
  | _ -> false

(* Does [e] mention an identifier qualified by one of [mods]? *)
let mentions_module mods e =
  let found = ref false in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
      match Longident.flatten txt with
      | m :: _ :: _ when List.mem m mods -> found := true
      | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

(* A handler that re-raises is not swallowing. *)
let reraises e =
  let found = ref false in
  let expr it e =
    (match head_ident e with
    | Some ("raise" | "raise_notrace" | "Printexc.raise_with_backtrace") ->
      found := true
    | _ -> (
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> (
        match strip_stdlib (lid_path txt) with
        | "raise" | "raise_notrace" | "Printexc.raise_with_backtrace" ->
          found := true
        | _ -> ())
      | _ -> ()));
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

(* ------------------------------------------------------------------ *)
(* The walker                                                          *)
(* ------------------------------------------------------------------ *)

type fctx = {
  st : state;
  file : string;
  mutable modname : string;
  mutable fn_stack : string list;  (* innermost first *)
  mutable locals : (string * string) list;  (* local fn name -> summary key *)
  mutable tracked : (string * string) list;  (* ref/array binding -> cell *)
  mutable owned : string list;
      (* vars bound to record literals in this function: accesses
         through them are construction-before-publication, not shared
         accesses.  Cleared inside spawned closures and local function
         bodies, which may run after publication. *)
  mutable while_depth : int;
}

let report ctx ~rule loc msg =
  ctx.st.findings <-
    Finding.of_loc ~rule ~severity:(severity_of rule) ~file:ctx.file loc msg
    :: ctx.st.findings

let fn_key ctx =
  match ctx.fn_stack with
  | [] -> ctx.modname ^ ".<top>"
  | fs -> ctx.modname ^ "." ^ String.concat "." (List.rev fs)

let summary ctx =
  let key = fn_key ctx in
  match Hashtbl.find_opt ctx.st.funcs key with
  | Some s -> s
  | None ->
    let s =
      {
        f_mod = ctx.modname;
        f_acquires = [];
        f_edges = [];
        f_calls = [];
        f_accesses = [];
      }
    in
    Hashtbl.add ctx.st.funcs key s;
    s

let site_of ctx loc =
  { s_file = ctx.file; s_line = line_of loc; s_col = col_of loc }

(* Locks are identified by their final field/variable name, qualified
   by the defining module: precise enough to separate [Pool.m] from
   [Loop.init_lock], coarse enough that every instance of a per-task
   lock is one graph node (which is exactly what a lock-ORDER
   discipline is about). *)
let lock_name ctx e =
  let base =
    match e.pexp_desc with
    | Pexp_field (_, { txt; _ }) -> Longident.last txt
    | Pexp_ident { txt; _ } -> Longident.last txt
    | _ -> "<anon>"
  in
  ctx.modname ^ "." ^ base

let record_acquire ctx held name loc =
  let s = summary ctx in
  s.f_acquires <- name :: s.f_acquires;
  List.iter (fun h -> s.f_edges <- (h, name, site_of ctx loc) :: s.f_edges) held

let record_call ctx held callee loc =
  let s = summary ctx in
  s.f_calls <- (callee, held, site_of ctx loc) :: s.f_calls

(* Resolve a call target to a summary key: local function scopes first,
   then a module-level sibling, then (for qualified paths) another
   scanned module's top-level function. *)
let resolve ctx path =
  if String.contains path '.' then path
  else
    match List.assoc_opt path ctx.locals with
    | Some key -> key
    | None -> ctx.modname ^ "." ^ path

(* ------------------------------------------------------------------ *)
(* Tracked-cell plumbing                                               *)
(* ------------------------------------------------------------------ *)

let register_cell ctx cell ~bool ~creator ~toplevel =
  if not (Hashtbl.mem ctx.st.cells cell) then
    Hashtbl.add ctx.st.cells cell
      { c_bool = bool; c_creator = creator; c_toplevel = toplevel }

(* Resolve a field label to its declaring module, preferring lexical
   scope: the accessing module itself, then an enclosing module, then
   an enclosed one, then a qualifier on the access path, then the
   lexicographically smallest declarer (deterministic under any file
   order — the shuffle test depends on this). *)
let field_cell ctx lid =
  let label = Longident.last lid in
  match Hashtbl.find_all ctx.st.decls label with
  | [] -> None
  | ds ->
    let qual =
      match lid with
      | Longident.Ldot (m, _) ->
        Some (String.concat "." (Longident.flatten m))
      | _ -> None
    in
    let score d =
      if Some d.d_mod = qual then 6
      else if
        match qual with
        | Some q -> String.ends_with ~suffix:("." ^ q) d.d_mod
        | None -> false
      then 5
      else if d.d_mod = ctx.modname then 4
      else if String.starts_with ~prefix:(d.d_mod ^ ".") ctx.modname then 3
      else if String.starts_with ~prefix:(ctx.modname ^ ".") d.d_mod then 2
      else 0
    in
    let best =
      List.fold_left
        (fun acc d ->
          match acc with
          | None -> Some d
          | Some b ->
            let sd = score d and sb = score b in
            if sd > sb || (sd = sb && d.d_mod < b.d_mod) then Some d
            else acc)
        None ds
    in
    (* Resolution runs over ALL labels so lexical scope wins; only a
       tracked winner names a cell.  An untracked winner (immutable,
       or Atomic.t) shadows any same-named tracked label elsewhere. *)
    Option.bind best (fun d ->
        if d.d_tracked then Some (d.d_mod ^ "." ^ label, d.d_bool) else None)

let tracked_ident ctx e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } ->
    List.assoc_opt x ctx.tracked
  | _ -> None

let obj_owned ctx obj =
  match obj.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> List.mem x ctx.owned
  | _ -> false

let record_access ctx held ~cell ~write ~bool_lit loc =
  let s = summary ctx in
  s.f_accesses <-
    {
      a_cell = cell;
      a_write = write;
      a_bool_lit = bool_lit;
      a_site = site_of ctx loc;
      a_held = held;
    }
    :: s.f_accesses

let record_field ctx held ~write ?value obj lid loc =
  if not (obj_owned ctx obj) then
    match field_cell ctx lid with
    | None -> ()
    | Some (cell, d_bool) ->
      register_cell ctx cell ~bool:d_bool ~creator:None ~toplevel:false;
      let bool_lit =
        match value with Some v -> is_bool_lit v | None -> false
      in
      record_access ctx held ~cell ~write ~bool_lit loc

let remove_last held name =
  let rec go = function
    | [] -> []
    | h :: tl when h = name -> tl
    | h :: tl -> h :: go tl
  in
  List.rev (go (List.rev held))

let check_ident ctx path loc =
  (* MONOTONIC-TIME: no file reads the wall clock.  Deadlines, backoff
     gates, elapsed-time measurements and history timestamps all use
     the monotonic [Clock.now]. *)
  if path = "Unix.gettimeofday" then
    report ctx ~rule:monotonic_time loc
      "Unix.gettimeofday: deadlines, backoff gates, elapsed times and \
       history timestamps must use the monotonic Clock.now";
  if List.mem path raw_io_calls && not (in_files raw_io_files ctx.file) then
    report ctx ~rule:raw_io loc
      (Printf.sprintf
         "raw socket I/O (%s) outside lib/transport/netio.ml: use \
          Netio.write_all / Netio.read so EINTR is retried, not treated \
          as link death"
         path)

let catch_all_msg kind =
  Printf.sprintf
    "catch-all %s swallows failures of an I/O call: match the exceptions \
     the call can raise (e.g. Unix.Unix_error _) so programming errors \
     still crash loudly"
    kind

let rec walk ctx held e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
    check_ident ctx (strip_stdlib (lid_path txt)) e.pexp_loc;
    held
  | Pexp_field (obj, { txt; _ }) ->
    record_field ctx held ~write:false obj txt e.pexp_loc;
    walk ctx held obj
  | Pexp_setfield (obj, { txt; _ }, v) ->
    record_field ctx held ~write:true ~value:v obj txt e.pexp_loc;
    let held = walk ctx held obj in
    ignore (walk ctx held v);
    held
  | Pexp_apply (hd, args) -> walk_apply ctx held e hd args
  | Pexp_sequence (a, b) ->
    let held = walk ctx held a in
    walk ctx held b
  | Pexp_let (_, vbs, body) ->
    let held = List.fold_left (walk_binding ctx) held vbs in
    walk ctx held body
  | Pexp_fun (_, default, _, body) ->
    (* Anonymous closures run at the call site (iteration combinators);
       named ones never reach this case — [walk_binding] and the
       structure walker route them through a fresh summary instead. *)
    Option.iter (fun d -> ignore (walk ctx held d)) default;
    ignore (walk ctx held body);
    held
  | Pexp_function cases ->
    List.iter (walk_case ctx held) cases;
    held
  | Pexp_match (scrut, cases) ->
    List.iter
      (fun c ->
        if
          exn_wild c.pc_lhs && c.pc_guard = None
          && mentions_module io_modules scrut
          && not (reraises c.pc_rhs)
        then
          report ctx ~rule:catch_all_exn c.pc_lhs.ppat_loc
            (catch_all_msg "`exception _` handler"))
      cases;
    let held = walk ctx held scrut in
    List.iter (walk_case ctx held) cases;
    held
  | Pexp_try (body, cases) ->
    List.iter
      (fun c ->
        if
          is_wild c.pc_lhs && c.pc_guard = None
          && mentions_module io_modules body
          && not (reraises c.pc_rhs)
        then
          report ctx ~rule:catch_all_exn c.pc_lhs.ppat_loc
            (catch_all_msg "`with _` handler"))
      cases;
    ignore (walk ctx held body);
    List.iter (walk_case ctx held) cases;
    held
  | Pexp_ifthenelse (c, a, b) ->
    let held = walk ctx held c in
    (* The then-branch of [if Loop.on_loop ()] runs on the loop's
       thread, with what the caller holds. *)
    (match c.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
      when names_one_of [ "Loop.on_loop" ] (lid_path txt) ->
      walk_frame ctx held
        (Printf.sprintf "<loop:%d>" (line_of c.pexp_loc))
        [ (Asttypes.Nolabel, a) ]
    | _ -> ignore (walk ctx held a));
    Option.iter (fun b -> ignore (walk ctx held b)) b;
    held
  | Pexp_while (cond, body) ->
    let held = walk ctx held cond in
    ctx.while_depth <- ctx.while_depth + 1;
    ignore (walk ctx held body);
    ctx.while_depth <- ctx.while_depth - 1;
    held
  | Pexp_for (_, lo, hi, _, body) ->
    let held = walk ctx held lo in
    let held = walk ctx held hi in
    ignore (walk ctx held body);
    held
  | _ ->
    (* Everything else: visit children with the current held set and
       assume the construct is lock-balanced. *)
    let expr _ e' = ignore (walk ctx held e') in
    let it = { Ast_iterator.default_iterator with expr } in
    Ast_iterator.default_iterator.expr it e;
    held

and walk_case ctx held c =
  Option.iter (fun g -> ignore (walk ctx held g)) c.pc_guard;
  ignore (walk ctx held c.pc_rhs)

and walk_binding ctx held vb =
  match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
  | Ppat_var { txt = name; _ }, (Pexp_fun _ | Pexp_function _) ->
    (* A named local function: body runs at call time with no lexical
       locks; register it so later calls pull in its acquisitions.
       Outer tracked cells stay visible (closure capture); the owned
       set does not — the body may run after publication. *)
    ctx.fn_stack <- name :: ctx.fn_stack;
    let key = fn_key ctx in
    ignore (summary ctx);
    let saved_tracked = ctx.tracked and saved_owned = ctx.owned in
    ctx.owned <- [];
    (match vb.pvb_expr.pexp_desc with
    | Pexp_fun (_, default, _, body) ->
      Option.iter (fun d -> ignore (walk ctx [] d)) default;
      ignore (walk ctx [] body)
    | Pexp_function cases -> List.iter (walk_case ctx []) cases
    | _ -> ());
    ctx.tracked <- saved_tracked;
    ctx.owned <- saved_owned;
    ctx.fn_stack <- List.tl ctx.fn_stack;
    ctx.locals <- (name, key) :: ctx.locals;
    held
  | Ppat_var { txt = name; _ }, _ ->
    let held = walk ctx held vb.pvb_expr in
    (* Rebinding the name invalidates any earlier classification. *)
    ctx.tracked <- List.remove_assoc name ctx.tracked;
    ctx.owned <- List.filter (fun o -> o <> name) ctx.owned;
    (match creation_of vb.pvb_expr with
    | Some is_bool ->
      let cell = fn_key ctx ^ "." ^ name in
      register_cell ctx cell ~bool:is_bool ~creator:(Some (fn_key ctx))
        ~toplevel:false;
      ctx.tracked <- (name, cell) :: ctx.tracked
    | None ->
      if is_record_literal vb.pvb_expr then ctx.owned <- name :: ctx.owned);
    held
  | _ -> walk ctx held vb.pvb_expr

and walk_apply ctx held e hd args =
  match head_ident hd with
  | None ->
    let held = walk ctx held hd in
    List.fold_left (fun h (_, a) -> walk ctx h a) held args
  | Some path -> (
    let loc = e.pexp_loc in
    let walk_args held =
      List.fold_left (fun h (_, a) -> walk ctx h a) held args
    in
    let is_with_lock =
      path = "Mutex.protect"
      || String.ends_with ~suffix:"with_lock" (String.lowercase_ascii path)
    in
    match (path, args) with
    | "Mutex.lock", [ (_, le) ] ->
      let name = lock_name ctx le in
      record_acquire ctx held name loc;
      ignore (walk ctx held le);
      held @ [ name ]
    | "Mutex.unlock", [ (_, le) ] ->
      ignore (walk ctx held le);
      remove_last held (lock_name ctx le)
    | _, [ (_, le); (_, fn) ] when is_with_lock ->
      let name = lock_name ctx le in
      record_acquire ctx held name loc;
      ignore (walk ctx held le);
      let held_in = held @ [ name ] in
      (match fn.pexp_desc with
      | Pexp_fun (_, _, _, body) -> ignore (walk ctx held_in body)
      | Pexp_ident { txt; _ } ->
        record_call ctx held_in (resolve ctx (strip_stdlib (lid_path txt))) loc
      | _ -> ignore (walk ctx held_in fn));
      held
    | "!", [ (_, a) ] ->
      (match tracked_ident ctx a with
      | Some cell ->
        record_access ctx held ~cell ~write:false ~bool_lit:false loc
      | None -> ());
      walk_args held
    | ":=", [ (_, a); (_, v) ] ->
      (match tracked_ident ctx a with
      | Some cell ->
        record_access ctx held ~cell ~write:true ~bool_lit:(is_bool_lit v)
          loc
      | None -> ());
      walk_args held
    | ("incr" | "decr"), [ (_, a) ] ->
      (match tracked_ident ctx a with
      | Some cell ->
        record_access ctx held ~cell ~write:true ~bool_lit:false loc
      | None -> ());
      walk_args held
    | "Atomic.set", [ (_, t); (_, v) ] ->
      (match atomic_target t with
      | Some tgt when contains_atomic_get tgt v ->
        report ctx ~rule:atomic_discipline loc
          "Atomic.get-then-Atomic.set is not atomic: another thread can \
           interleave between the read and the write — use \
           Atomic.compare_and_set (or fetch_and_add / incr) instead"
      | _ -> ());
      walk_args held
    | _, _ when List.mem path spawn_calls ->
      (* The spawned closure starts on a fresh stack: walk it with no
         held locks under an unreachable summary, so its acquisitions
         never count as the spawner's.  The spawn that starts the event
         loop's thread is the loop's origin. *)
      let kind = if ctx.modname = "Transport.Loop" then "loop" else "spawn" in
      walk_frame ctx [] (Printf.sprintf "<%s:%d>" kind (line_of loc)) args;
      held
    | _, _ when names_one_of loop_calls (resolve ctx path) ->
      record_call ctx held (resolve ctx path) loc;
      walk_frame ctx [] (Printf.sprintf "<loop:%d>" (line_of loc)) args;
      held
    | "Condition.wait", _ ->
      if ctx.while_depth = 0 then
        report ctx ~rule:condition_wait_loop loc
          "Condition.wait outside a while loop: a wait must sit in a \
           predicate-recheck loop (wake-ups are spurious and broadcast \
           tickers wake everyone)";
      walk_args held
    | _ ->
      check_ident ctx path loc;
      (match container_access path with
      | Some write ->
        List.iter
          (fun (_, a) ->
            match tracked_ident ctx a with
            | Some cell ->
              record_access ctx held ~cell ~write ~bool_lit:false loc
            | None -> ())
          args
      | None -> ());
      if List.mem path blocking_calls && held <> [] then
        report ctx ~rule:blocking_under_lock loc
          (Printf.sprintf
             "blocking call %s lexically inside a held-lock region (held: \
              %s): drop the lock around the syscall or stage the I/O"
             path
             (String.concat ", " held));
      record_call ctx held (resolve ctx path) loc;
      record_passed ctx held args;
      walk_args held)

(* A function passed as a value ([List.iter f xs], [Domain.spawn
   worker]) may be called where it is passed, with what is held there:
   record each bare identifier argument as a call. *)
and record_passed ctx held args =
  List.iter
    (fun (_, a) ->
      match a.pexp_desc with
      | Pexp_ident { txt; _ } ->
        let callee = resolve ctx (strip_stdlib (lid_path txt)) in
        record_call ctx held callee a.pexp_loc
      | _ -> ())
    args

(* Walk [args] under a frame summary [tag] that no call site reaches,
   starting with [held], its bare function arguments recorded as its
   calls; the owned set is cleared because the frame runs after
   publication. *)
and walk_frame ctx held tag args =
  ctx.fn_stack <- tag :: ctx.fn_stack;
  let saved_owned = ctx.owned in
  ctx.owned <- [];
  record_passed ctx held args;
  List.iter (fun (_, a) -> ignore (walk ctx held a)) args;
  ctx.owned <- saved_owned;
  ctx.fn_stack <- List.tl ctx.fn_stack

(* ------------------------------------------------------------------ *)
(* Structure traversal                                                 *)
(* ------------------------------------------------------------------ *)

(* Module identity must be globally unique or two same-named files
   merge: lib/simulation/engine.ml and lib/analysis/engine.ml both
   keyed [Engine.run] once made the simulation's run loop "call" the
   lint's own fixpoint.  Namespace each lib file by its dune library
   wrapper (the parent directory, with the few dirs whose library name
   differs aliased), which is also how cross-library source refers to
   it; executables under bin/test/bench/examples stay bare so sibling
   references ([Hunter.run_shape]) keep resolving. *)
let wrapper_of_dir = function
  | "history" -> "Histories"
  | "quorum" -> "Quorums"
  | "core" -> "Mwregister"
  | d -> String.capitalize_ascii d

let module_name_of_path path =
  let base =
    String.capitalize_ascii
      (Filename.remove_extension (Filename.basename path))
  in
  match Filename.basename (Filename.dirname path) with
  | "" | "." | ".." | "lib" | "bin" | "test" | "bench" | "examples" -> base
  | dir when wrapper_of_dir dir = base -> base (* a library's main module *)
  | dir -> wrapper_of_dir dir ^ "." ^ base

let rec walk_structure ctx items =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let name =
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } -> txt
              | _ -> "<top>"
            in
            ctx.fn_stack <- [ name ];
            ignore (summary ctx);
            let saved_tracked = ctx.tracked and saved_owned = ctx.owned in
            (* A top-level ref/array/table is a module-global cell:
               visible to every function that follows.  Its own init
               expression is the creator summary.  Top-level record
               literals are NOT owned — a module-global record is
               published to everyone by definition. *)
            let top_cell =
              if name <> "<top>" && creation_of vb.pvb_expr <> None then begin
                let cell = ctx.modname ^ "." ^ name in
                register_cell ctx cell
                  ~bool:(creation_of vb.pvb_expr = Some true)
                  ~creator:(Some (fn_key ctx)) ~toplevel:true;
                Some (name, cell)
              end
              else None
            in
            ignore (walk ctx [] vb.pvb_expr);
            ctx.tracked <-
              (match top_cell with
              | Some tc -> tc :: saved_tracked
              | None -> saved_tracked);
            ctx.owned <- saved_owned;
            ctx.fn_stack <- [])
          vbs
      | Pstr_eval (e, _) ->
        ctx.fn_stack <- [ "<top>" ];
        ignore (walk ctx [] e);
        ctx.fn_stack <- []
      | Pstr_module { pmb_name = { txt = Some sub; _ }; pmb_expr; _ } -> (
        match pmb_expr.pmod_desc with
        | Pmod_structure sub_items ->
          let saved_mod = ctx.modname
          and saved_locals = ctx.locals
          and saved_tracked = ctx.tracked in
          ctx.modname <- ctx.modname ^ "." ^ sub;
          ctx.locals <- [];
          walk_structure ctx sub_items;
          ctx.modname <- saved_mod;
          ctx.locals <- saved_locals;
          ctx.tracked <- saved_tracked
        | _ -> ())
      | _ -> ())
    items

(* Decl pre-pass: record every mutable record label (and every
   container-typed label — immutable [bool array] fields still hold
   mutable contents) with its declaring module.  Runs over ALL sources
   before any analysis pass so cross-module field accesses resolve no
   matter the file order.  Atomic.t labels are exempt by construction:
   atomics are the sanctioned lock-free primitive. *)
let collect_decls st (src : Source.t) =
  let add_decl modname (ld : label_declaration) =
    let head = type_head ld.pld_type in
    let mut = ld.pld_mutable = Asttypes.Mutable in
    let tracked =
      (mut || List.mem head container_heads) && head <> "Atomic.t"
    in
    let label = ld.pld_name.Asttypes.txt in
    let dup =
      List.exists
        (fun d -> d.d_mod = modname)
        (Hashtbl.find_all st.decls label)
    in
    if not dup then
      Hashtbl.add st.decls label
        { d_mod = modname; d_bool = head = "bool"; d_tracked = tracked }
  in
  let rec go modname items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_type (_, tds) ->
          List.iter
            (fun td ->
              match td.ptype_kind with
              | Ptype_record labels -> List.iter (add_decl modname) labels
              | _ -> ())
            tds
        | Pstr_module { pmb_name = { txt = Some sub; _ }; pmb_expr; _ } -> (
          match pmb_expr.pmod_desc with
          | Pmod_structure sub_items -> go (modname ^ "." ^ sub) sub_items
          | _ -> ())
        | _ -> ())
      items
  in
  go (module_name_of_path src.Source.path) src.Source.ast

let analyze_file st (src : Source.t) =
  let ctx =
    {
      st;
      file = src.Source.path;
      modname = module_name_of_path src.Source.path;
      fn_stack = [];
      locals = [];
      tracked = [];
      owned = [];
      while_depth = 0;
    }
  in
  walk_structure ctx src.Source.ast

(* ------------------------------------------------------------------ *)
(* LOCK-ORDER: transitive acquisition sets and cycle detection         *)
(* ------------------------------------------------------------------ *)

module SS = Set.Make (String)

(* acquires*(f): every lock f may take, directly or via calls into
   scanned functions (fixpoint over the call graph). *)
let transitive_acquires st =
  let acq = Hashtbl.create 64 in
  Hashtbl.iter
    (fun key s -> Hashtbl.replace acq key (SS.of_list s.f_acquires))
    st.funcs;
  let get key = Option.value ~default:SS.empty (Hashtbl.find_opt acq key) in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun key s ->
        let cur = get key in
        let next =
          List.fold_left
            (fun set (callee, _, _) -> SS.union set (get callee))
            cur s.f_calls
        in
        if not (SS.equal next cur) then begin
          Hashtbl.replace acq key next;
          changed := true
        end)
      st.funcs
  done;
  get

(* All lock-nesting edges: lexical nesting recorded during the walk,
   plus held-set x acquires*(callee) at every call site. *)
let lock_edges st =
  let acq = transitive_acquires st in
  let edges = Hashtbl.create 64 in
  let add a b site =
    if not (Hashtbl.mem edges (a, b)) then Hashtbl.add edges (a, b) site
  in
  Hashtbl.iter
    (fun _ s ->
      List.iter (fun (a, b, site) -> add a b site) s.f_edges;
      List.iter
        (fun (callee, held, site) ->
          SS.iter (fun b -> List.iter (fun a -> add a b site) held)
            (acq callee))
        s.f_calls)
    st.funcs;
  edges

(* Strongly connected components of the lock graph (Tarjan).  An edge
   inside an SCC of size > 1 — or a self-edge — participates in a
   cycle. *)
let sccs nodes succs =
  let index = Hashtbl.create 16 and low = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] and counter = ref 0 in
  let comp = Hashtbl.create 16 in
  let ncomp = ref 0 in
  let rec strong v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop () =
        match !stack with
        | [] -> ()
        | w :: tl ->
          stack := tl;
          Hashtbl.remove on_stack w;
          Hashtbl.replace comp w !ncomp;
          if w <> v then pop ()
      in
      pop ();
      incr ncomp
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) nodes;
  comp

let findings st = st.findings

let lock_order_findings st =
  let edges = lock_edges st in
  let nodes =
    Hashtbl.fold (fun (a, b) _ acc -> SS.add a (SS.add b acc)) edges SS.empty
  in
  let succs v =
    Hashtbl.fold
      (fun (a, b) _ acc -> if a = v then b :: acc else acc)
      edges []
  in
  let comp = sccs (SS.elements nodes) succs in
  let scc_sizes = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ c ->
      Hashtbl.replace scc_sizes c
        (1 + Option.value ~default:0 (Hashtbl.find_opt scc_sizes c)))
    comp;
  let cyclic (a, b) =
    a = b
    || Hashtbl.find comp a = Hashtbl.find comp b
       && Hashtbl.find scc_sizes (Hashtbl.find comp a) > 1
  in
  Hashtbl.fold
    (fun (a, b) site acc ->
      if cyclic (a, b) then
        {
          Finding.rule = lock_order;
          severity = Finding.Error;
          file = site.s_file;
          line = site.s_line;
          col = site.s_col;
          message =
            (if a = b then
               Printf.sprintf
                 "lock %s re-acquired while already held (self-deadlock: \
                  stdlib mutexes are not reentrant)"
                 a
             else
               let members =
                 SS.elements
                   (SS.filter
                      (fun v -> Hashtbl.find comp v = Hashtbl.find comp a)
                      nodes)
               in
               Printf.sprintf
                 "lock acquisition %s -> %s closes a cycle through {%s}: \
                  pick one global order and stick to it"
                 a b
                 (String.concat ", " members));
        }
        :: acc
      else acc)
    edges []
