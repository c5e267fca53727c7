(* mwlint rule tests: one firing (positive) and one quiet (negative)
   inline fixture per rule, driven through the same engine entry point
   the CLI uses.  The [~path] given to a fixture participates in the
   path-scoped rules exactly as a real file's path would, which is how
   the negatives for RAW-IO are expressed — and how the
   BLOCKING-UNDER-LOCK positives pin down that the old server exemption
   really is gone.

   The shared-state rules (SHARED-ACCESS / ATOMIC-DISCIPLINE) are
   whole-program: their fixtures are one or more full files fed to
   [Engine.analyze] together, exercising the escape pass (spawn
   origins, pre-spawn confinement) and the lock-ownership inference
   (interprocedural held sets, majority owners, the two-locks case). *)

open Analysis

let check = Alcotest.check

let analyze_files files =
  Engine.analyze
    (List.map (fun (path, src) -> Source.parse_string ~path src) files)

let rule_findings_in files rule =
  List.filter (fun f -> f.Finding.rule = rule) (analyze_files files)

let rule_findings ~path src rule = rule_findings_in [ (path, src) ] rule
let count ~path src rule = List.length (rule_findings ~path src rule)

let fires name ~path src rule =
  check Alcotest.bool (name ^ ": fires") true (count ~path src rule > 0)

let quiet name ~path src rule =
  check Alcotest.int (name ^ ": quiet") 0 (count ~path src rule)

let contains hay pat =
  let n = String.length hay and m = String.length pat in
  let rec go i = i + m <= n && (String.sub hay i m = pat || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* MONOTONIC-TIME                                                      *)
(* ------------------------------------------------------------------ *)

let gettimeofday_src = "let elapsed t0 = Unix.gettimeofday () -. t0\n"

let test_monotonic_positive () =
  fires "gettimeofday in transport code" ~path:"lib/transport/foo.ml"
    gettimeofday_src Rules.monotonic_time;
  (* History timestamps are monotonic too: the session gets no pass. *)
  fires "gettimeofday in the session" ~path:"lib/kv/kv_session.ml"
    gettimeofday_src Rules.monotonic_time;
  (* The clock module reads CLOCK_MONOTONIC alone: no file may read the
     wall clock, its own included. *)
  fires "gettimeofday in the clock" ~path:"lib/transport/clock.ml"
    gettimeofday_src Rules.monotonic_time

let test_monotonic_negative () =
  quiet "Clock.now anywhere" ~path:"lib/transport/foo.ml"
    "let deadline () = Clock.now () +. 0.5\n" Rules.monotonic_time

(* ------------------------------------------------------------------ *)
(* RAW-IO                                                              *)
(* ------------------------------------------------------------------ *)

let raw_write_src = "let send fd b = Unix.write fd b 0 (Bytes.length b)\n"

let test_raw_io_positive () =
  fires "Unix.write outside netio" ~path:"lib/transport/foo.ml" raw_write_src
    Rules.raw_io

let test_raw_io_negative () =
  quiet "Unix.write inside netio" ~path:"lib/transport/netio.ml" raw_write_src
    Rules.raw_io;
  quiet "Netio wrapper elsewhere" ~path:"lib/transport/foo.ml"
    "let send fd b = Netio.write_all fd b 0 (Bytes.length b)\n" Rules.raw_io

(* ------------------------------------------------------------------ *)
(* CONDITION-WAIT-LOOP                                                 *)
(* ------------------------------------------------------------------ *)

let test_condition_wait_positive () =
  fires "bare Condition.wait" ~path:"lib/foo.ml"
    "let await c m = Condition.wait c m\n" Rules.condition_wait_loop

let test_condition_wait_negative () =
  quiet "wait in a predicate-recheck loop" ~path:"lib/foo.ml"
    "let await c m ready = while not !ready do Condition.wait c m done\n"
    Rules.condition_wait_loop

(* ------------------------------------------------------------------ *)
(* CATCH-ALL-EXN                                                       *)
(* ------------------------------------------------------------------ *)

let test_catch_all_positive () =
  fires "wildcard around a read" ~path:"lib/foo.ml"
    "let recv fd b = try Netio.read fd b 4 with _ -> false\n"
    Rules.catch_all_exn;
  fires "wildcard `exception` case" ~path:"lib/foo.ml"
    "let recv fd b =\n\
    \  match Netio.read fd b 4 with ok -> ok | exception _ -> false\n"
    Rules.catch_all_exn

let test_catch_all_negative () =
  quiet "specific exception" ~path:"lib/foo.ml"
    "let recv fd b = try Netio.read fd b 4 with Unix.Unix_error _ -> false\n"
    Rules.catch_all_exn;
  quiet "wildcard around pure code" ~path:"lib/foo.ml"
    "let parse s = try int_of_string s with _ -> 0\n" Rules.catch_all_exn;
  quiet "wildcard that re-raises" ~path:"lib/foo.ml"
    "let recv fd b = try Netio.read fd b 4 with e -> cleanup (); raise e\n"
    Rules.catch_all_exn

(* ------------------------------------------------------------------ *)
(* BLOCKING-UNDER-LOCK                                                 *)
(* ------------------------------------------------------------------ *)

let test_blocking_positive () =
  fires "sleep under Mutex.protect" ~path:"lib/foo.ml"
    "let m = Mutex.create ()\n\
     let nap () = Mutex.protect m (fun () -> Unix.sleepf 0.1)\n"
    Rules.blocking_under_lock;
  fires "sleep between lock and unlock" ~path:"lib/foo.ml"
    "let m = Mutex.create ()\n\
     let nap () = Mutex.lock m; Unix.sleepf 0.1; Mutex.unlock m\n"
    Rules.blocking_under_lock;
  (* The thread-per-connection server wrote replies under a
     per-connection write lock and carried the rule's only exemptions.
     The reactor's flush path is lock-free, the exemptions are gone,
     and the rule must fire even in server.ml now. *)
  fires "old server exemption removed" ~path:"lib/transport/server.ml"
    "let handle_conn wlock fd b =\n\
    \  Mutex.protect wlock (fun () -> Netio.write_all fd b 0 4)\n"
    Rules.blocking_under_lock;
  (* A server's reactor parking in its poller while holding a lock
     would stall every connection it owns: the readiness waits are
     classified as blocking. *)
  fires "poller wait under a lock" ~path:"lib/transport/foo.ml"
    "let m = Mutex.create ()\n\
     let bad p f = Mutex.protect m (fun () -> Netio.Poller.wait p f)\n"
    Rules.blocking_under_lock

let test_blocking_negative () =
  quiet "lock dropped around the syscall" ~path:"lib/foo.ml"
    "let m = Mutex.create ()\n\
     let nap () = Mutex.lock m; Mutex.unlock m; Unix.sleepf 0.1\n"
    Rules.blocking_under_lock;
  (* Netio's non-blocking variants return EAGAIN instead of parking the
     thread: flushing an out-queue under a lock is not a blocking call
     (the reactor does not do even this, but the classification is the
     rule's reactor-aware core). *)
  quiet "non-blocking write under a lock" ~path:"lib/foo.ml"
    "let m = Mutex.create ()\n\
     let f fd b = Mutex.protect m (fun () -> Netio.write_nb fd b 0 4)\n"
    Rules.blocking_under_lock

(* ------------------------------------------------------------------ *)
(* LOCK-ORDER                                                          *)
(* ------------------------------------------------------------------ *)

let test_lock_order_positive () =
  fires "opposite nesting orders" ~path:"lib/foo.ml"
    "let a = Mutex.create ()\n\
     let b = Mutex.create ()\n\
     let f () = Mutex.protect a (fun () -> Mutex.protect b (fun () -> ()))\n\
     let g () = Mutex.protect b (fun () -> Mutex.protect a (fun () -> ()))\n"
    Rules.lock_order;
  (* The second leg of the cycle runs through a call: g holds b and
     calls f, whose transitive acquisitions include a. *)
  fires "cycle through a call site" ~path:"lib/foo.ml"
    "let a = Mutex.create ()\n\
     let b = Mutex.create ()\n\
     let f () = Mutex.protect a (fun () -> Mutex.protect b (fun () -> ()))\n\
     let g () = Mutex.protect b (fun () -> f ())\n"
    Rules.lock_order;
  fires "self-deadlock" ~path:"lib/foo.ml"
    "let a = Mutex.create ()\n\
     let f () = Mutex.protect a (fun () -> Mutex.protect a (fun () -> ()))\n"
    Rules.lock_order

let test_lock_order_negative () =
  quiet "consistent global order" ~path:"lib/foo.ml"
    "let a = Mutex.create ()\n\
     let b = Mutex.create ()\n\
     let f () = Mutex.protect a (fun () -> Mutex.protect b (fun () -> ()))\n\
     let g () = Mutex.protect a (fun () -> Mutex.protect b (fun () -> ()))\n"
    Rules.lock_order;
  (* A closure handed to Thread.create starts on a fresh stack: its
     acquisitions must not count as the spawner's. *)
  quiet "spawned closure is a fresh stack" ~path:"lib/foo.ml"
    "let a = Mutex.create ()\n\
     let b = Mutex.create ()\n\
     let f () =\n\
    \  Mutex.protect a\n\
    \    (fun () ->\n\
    \      ignore (Thread.create (fun () -> Mutex.protect b ignore) ()))\n\
     let g () = Mutex.protect b (fun () -> Mutex.protect a (fun () -> ()))\n"
    Rules.lock_order

(* ------------------------------------------------------------------ *)
(* SHARED-ACCESS                                                       *)
(* ------------------------------------------------------------------ *)

(* A module-global record field written by the main thread AND by a
   closure spawned onto another thread, never under any lock. *)
let shared_bare_src =
  "type t = { mutable count : int }\n\
   let g = { count = 0 }\n\
   let bump () = g.count <- g.count + 1\n\
   let run () = ignore (Thread.create bump ()); bump ()\n"

let test_shared_access_positive () =
  fires "bare cross-thread field" ~path:"test/fix_bare.ml" shared_bare_src
    Rules.shared_access;
  (* The spawned closure re-enters the spawner's module: the escape
     pass must follow the call from the spawn frame back into [touch]
     and still see two origins. *)
  fires "spawned closure re-enters its module" ~path:"test/fix_reenter.ml"
    "type t = { mutable hits : int }\n\
     let g = { hits = 0 }\n\
     let touch () = g.hits <- g.hits + 1\n\
     let run () = ignore (Thread.create (fun () -> touch ()) ()); touch ()\n"
    Rules.shared_access

let test_shared_access_partial_coverage () =
  (* Guarded at bump's two sites, bare in sneak: the finding lands on
     the bare site, not on the covered ones. *)
  let fs =
    rule_findings ~path:"test/fix_partial.ml"
      "type t = { mutable count : int }\n\
       let g = { count = 0 }\n\
       let m = Mutex.create ()\n\
       let bump () = Mutex.protect m (fun () -> g.count <- g.count + 1)\n\
       let sneak () = g.count <- 0\n\
       let run () = ignore (Thread.create bump ()); sneak ()\n"
      Rules.shared_access
  in
  check Alcotest.int "one bare site" 1 (List.length fs);
  match fs with
  | [ f ] ->
    check Alcotest.int "anchored at sneak's line" 5 f.Finding.line;
    check Alcotest.bool "names the inferred owner" true
      (contains f.Finding.message "bare here")
  | _ -> Alcotest.fail "expected exactly one finding"

let test_shared_access_two_locks () =
  (* The same field guarded by two DIFFERENT locks in two different
     modules: the locks do not exclude each other, so the minority
     site must be reported even though no site is bare. *)
  let fs =
    rule_findings_in
      [
        ( "test/locka.ml",
          "type t = { mutable shared : int }\n\
           let g = { shared = 0 }\n\
           let la = Mutex.create ()\n\
           let bump () = Mutex.protect la (fun () -> g.shared <- g.shared + 1)\n\
           let run () = ignore (Thread.create bump ()); Lockb.poke ()\n" );
        ( "test/lockb.ml",
          "let lb = Mutex.create ()\n\
           let poke () = Mutex.protect lb (fun () -> Locka.g.shared <- 0)\n" );
      ]
      Rules.shared_access
  in
  check Alcotest.int "minority-lock site reported" 1 (List.length fs);
  match fs with
  | [ f ] ->
    check Alcotest.string "reported in the minority module" "test/lockb.ml"
      f.Finding.file;
    check Alcotest.bool "explains the non-exclusion" true
      (contains f.Finding.message "two different locks")
  | _ -> Alcotest.fail "expected exactly one finding"

let test_shared_access_negative () =
  (* Every thread-shared site under one mutex: fully guarded. *)
  quiet "fully guarded cell" ~path:"test/fix_guarded.ml"
    "type t = { mutable count : int }\n\
     let g = { count = 0 }\n\
     let m = Mutex.create ()\n\
     let bump () = Mutex.protect m (fun () -> g.count <- g.count + 1)\n\
     let run () = ignore (Thread.create bump ()); bump ()\n"
    Rules.shared_access;
  (* The lock is held by the CALLER: the interprocedural held-at-entry
     fixpoint must credit raw's accesses with m. *)
  quiet "lock held across a call" ~path:"test/fix_interproc.ml"
    "type t = { mutable n : int }\n\
     let g = { n = 0 }\n\
     let m = Mutex.create ()\n\
     let raw () = g.n <- g.n + 1\n\
     let bump () = Mutex.protect m (fun () -> raw ())\n\
     let run () = ignore (Thread.create bump ()); bump ()\n"
    Rules.shared_access;
  (* Written only before the spawn, read by nobody else afterwards:
     one thread origin, nothing to race with. *)
  quiet "field only accessed pre-spawn" ~path:"test/fix_prespawn.ml"
    "type t = { mutable count : int }\n\
     let g = { count = 0 }\n\
     let init () = g.count <- 1\n\
     let worker () = print_newline ()\n\
     let run () = init (); ignore (Thread.create worker ())\n"
    Rules.shared_access

(* Closures handed to the event loop share one origin, [<loop>],
   whichever thread created them, and running on the loop excludes
   other code on the loop as a lock would. *)
let test_shared_access_loop () =
  let fs =
    rule_findings ~path:"test/fix_loop_client.ml"
      "type t = { mutable n : int }\n\
       let g = { n = 0 }\n\
       let run () =\n\
      \  Loop.submit (fun () -> g.n <- g.n + 1);\n\
      \  ignore (Thread.create (fun () -> g.n <- 0) ())\n"
      Rules.shared_access
  in
  check Alcotest.int "client-thread write vs a submitted closure" 1
    (List.length fs);
  (match fs with
  | [ f ] ->
    check Alcotest.int "anchored at the client thread's write" 5 f.Finding.line;
    check Alcotest.bool "names the loop as the owner" true
      (contains f.Finding.message "guarded by <loop>")
  | _ -> ());
  quiet "a handler and a submitted closure from two threads"
    ~path:"test/fix_loop_only.ml"
    "type t = { mutable n : int }\n\
     let g = { n = 0 }\n\
     let on_ready ~readable ~writable:_ = if readable then g.n <- g.n + 1\n\
     let start fd = Loop.watch fd ~want_write:false on_ready\n\
     let run fd =\n\
    \  ignore (Thread.create (fun () -> Loop.submit (fun () -> g.n <- 0)) ());\n\
    \  start fd\n"
    Rules.shared_access;
  quiet "the then-branch of [if Loop.on_loop ()]" ~path:"test/fix_loop_guard.ml"
    "type t = { mutable n : int }\n\
     let g = { n = 0 }\n\
     let bump () = if Loop.on_loop () then g.n <- g.n + 1\n\
     let run () = Loop.submit (fun () -> g.n <- 0); bump ()\n"
    Rules.shared_access

(* A function passed as a value ([List.iter f xs], [Option.iter f x])
   is called from where it is passed: its accesses take that frame's
   thread origin and held locks. *)
let test_shared_access_passed_function () =
  fires "reached through List.iter on a spawned thread"
    ~path:"test/fix_passed.ml"
    "type t = { mutable n : int }\n\
     let g = { n = 0 }\n\
     let bump _ = g.n <- g.n + 1\n\
     let run xs =\n\
    \  ignore (Thread.create (fun () -> List.iter bump xs) ());\n\
    \  g.n <- 0\n"
    Rules.shared_access;
  quiet "reached through Option.iter on the loop"
    ~path:"test/fix_passed_loop.ml"
    "type t = { mutable n : int }\n\
     let g = { n = 0 }\n\
     let reset _ = g.n <- 0\n\
     let run x =\n\
    \  Loop.submit (fun () -> g.n <- g.n + 1);\n\
    \  Loop.submit (fun () -> Option.iter reset x)\n"
    Rules.shared_access

(* A lock_free_allow entry is stale unless it justifies a thread-shared
   cell: [shared_bare_src] in the checker library is the cell
   [Checker.Fix_bare.count], which "Checker.*" covers, so that entry
   alone is in use. *)
let test_stale_allow () =
  let stale src =
    (Engine.run [ Source.parse_string ~path:"lib/checker/fix_bare.ml" src ])
      .Engine.stale_allow
  in
  let all = List.map fst Rules.lock_free_allow in
  check Alcotest.(list string) "no shared cell: all stale" all (stale "let x = 1\n");
  check Alcotest.(list string) "Checker.* in use"
    (List.filter (( <> ) "Checker.*") all)
    (stale shared_bare_src)

(* ------------------------------------------------------------------ *)
(* ATOMIC-DISCIPLINE                                                   *)
(* ------------------------------------------------------------------ *)

let test_atomic_discipline_positive () =
  (* The classic racy shutdown flag: plain bool store in one thread,
     plain load in the spin loop of another. *)
  fires "plain bool flag across threads" ~path:"test/fix_flag.ml"
    "type t = { mutable stop : bool }\n\
     let g = { stop = false }\n\
     let worker () = while not g.stop do ignore 0 done\n\
     let run () = ignore (Thread.create worker ()); g.stop <- true\n"
    Rules.atomic_discipline;
  (* Atomic.get feeding Atomic.set of the same cell is a lost-update
     window regardless of sharing: a single-file rule. *)
  fires "get-then-set is not an RMW" ~path:"test/fix_rmw.ml"
    "let c = Atomic.make 0\n\
     let bump () = Atomic.set c (Atomic.get c + 1)\n"
    Rules.atomic_discipline

let test_atomic_discipline_negative () =
  quiet "Atomic.t flag" ~path:"test/fix_atomic.ml"
    "type t = { stop : bool Atomic.t }\n\
     let g = { stop = Atomic.make false }\n\
     let worker () = while not (Atomic.get g.stop) do ignore 0 done\n\
     let run () = ignore (Thread.create worker ()); Atomic.set g.stop true\n"
    Rules.atomic_discipline;
  quiet "real RMW primitives" ~path:"test/fix_cas.ml"
    "let c = Atomic.make 0\n\
     let bump () = Atomic.incr c\n\
     let flip f = Atomic.compare_and_set f false true\n"
    Rules.atomic_discipline

(* ------------------------------------------------------------------ *)
(* File-order determinism                                               *)
(* ------------------------------------------------------------------ *)

(* Cross-file resolution (decl scoring, callee lookup) must not depend
   on scan order: the same fixture set in any order yields byte-equal
   reports.  This is the property the CLI's sorted [find_files] and
   the report order lean on. *)
let order_fixtures =
  [
    ("test/fix_bare.ml", shared_bare_src);
    ( "test/locka.ml",
      "type t = { mutable shared : int }\n\
       let g = { shared = 0 }\n\
       let la = Mutex.create ()\n\
       let bump () = Mutex.protect la (fun () -> g.shared <- g.shared + 1)\n\
       let run () = ignore (Thread.create bump ()); Lockb.poke ()\n" );
    ( "test/lockb.ml",
      "let lb = Mutex.create ()\n\
       let poke () = Mutex.protect lb (fun () -> Locka.g.shared <- 0)\n" );
    ( "test/fix_flag.ml",
      "type t = { mutable stop : bool }\n\
       let g = { stop = false }\n\
       let worker () = while not g.stop do ignore 0 done\n\
       let run () = ignore (Thread.create worker ()); g.stop <- true\n" );
  ]

let render fs = String.concat "\n" (List.map Finding.to_string fs)

let order_stability_property =
  let reference = render (analyze_files order_fixtures) in
  QCheck.Test.make ~name:"findings independent of file order" ~count:30
    (QCheck.make (QCheck.Gen.shuffle_l order_fixtures))
    (fun files -> render (analyze_files files) = reference)

(* ------------------------------------------------------------------ *)
(* UNUSED-EXPORT                                                       *)
(* ------------------------------------------------------------------ *)

(* One library module, [Geom.Vec], whose [add] its own [scale] calls;
   each case adds the files that use it. *)
let unused ?(keep = []) files =
  let files =
    ( "lib/geom/vec.mli",
      "val add : int -> int -> int\nval scale : int -> int -> int\n" )
    :: ("lib/geom/vec.ml", "let add a b = a + b\nlet scale k a = k * add a 0\n")
    :: files
  in
  let mlis, mls =
    List.partition (fun (p, _) -> Filename.check_suffix p ".mli") files
  in
  let parse f = List.map (fun (path, src) -> f ~path src) in
  let r =
    Engine.run ~export_keep:keep
      ~intfs:(parse Source.parse_interface_string mlis)
      (parse Source.parse_string mls)
  in
  ( List.filter_map
      (fun f ->
        if f.Finding.rule = Rules.unused_export then Some f.Finding.message
        else None)
      r.Engine.findings,
    r.Engine.stale_keep )

let fires_once name pat files =
  match fst (unused files) with
  | [ m ] -> check Alcotest.bool (name ^ ": fires") true (contains m pat)
  | ms ->
    Alcotest.failf "%s: expected one finding, got %d" name (List.length ms)

let test_unused_export_positive () =
  fires_once "used only inside its module" "Geom.Vec.add is exported"
    [ ("bin/main.ml", "let () = print_int (Geom.Vec.scale 2 3)\n") ];
  fires_once "reached only from test/" "library module Geom.Vec"
    [
      ( "test/test_vec.ml",
        "let () = assert (Geom.Vec.add 1 (Geom.Vec.scale 1 1) = 2)\n" );
    ]

let test_unused_export_negative () =
  let quiet name files =
    check Alcotest.(list string) (name ^ ": quiet") [] (fst (unused files))
  in
  let main src = [ ("bin/main.ml", src) ] in
  quiet "open" (main "open Geom.Vec\nlet () = print_int (scale 2 (add 1 1))\n");
  quiet "let open"
    (main "let () = let open Geom in print_int (Vec.scale 2 (Vec.add 1 1))\n");
  quiet "local open" (main "let () = print_int Geom.Vec.(scale 2 (add 1 1))\n");
  quiet "module alias"
    (main "module V = Geom.Vec\nlet () = print_int (V.scale 2 (V.add 1 1))\n");
  quiet "facade alias"
    [
      ("lib/core/mwregister.ml", "module Vec = Geom.Vec\n");
      ( "bin/main.ml",
        "open Mwregister\nlet () = print_int (Vec.scale 2 (Vec.add 1 1))\n" );
    ];
  quiet "first-class module"
    (main
       "module type S = sig val add : int -> int -> int end\n\
        let m = (module Geom.Vec : S)\n");
  quiet "functor argument"
    (main
       "module F (X : sig val add : int -> int -> int end) = struct end\n\
        module M = F (Geom.Vec)\n");
  quiet "examples only"
    [
      ( "examples/ex.ml",
        "let () = print_int (Geom.Vec.scale 2 (Geom.Vec.add 1 1))\n" );
    ]

(* Exported types: [t] its own values mention; [kind], [dims] and
   [spare] only the files a case adds can reach, by a constructor, a
   label or the type's name. *)
let test_unused_export_types () =
  let shape main =
    unused
      [
        ( "lib/geom/shape.mli",
          "type t
           type kind = Circle | Square
           type dims = { w : int; h : int }
           type spare = int
           val unit : t
           val area : t -> int
" );
        ( "lib/geom/shape.ml",
          "type t = int
           type kind = Circle | Square
           type dims = { w : int; h : int }
           type spare = int
           let unit = 1
           let area x = x
" );
        ( "bin/main.ml",
          "let () = print_int (Geom.Vec.scale 1 (Geom.Vec.add 1 1))
           let () = print_int (Geom.Shape.area Geom.Shape.unit)
" ^ main );
      ]
    |> fst
  in
  let findings = shape "" in
  check Alcotest.int "three unreached types fire" 3 (List.length findings);
  List.iter
    (fun ty ->
      check Alcotest.bool (ty ^ " fires") true
        (List.exists (fun m -> contains m ("type Geom.Shape." ^ ty)) findings))
    [ "kind"; "dims"; "spare" ];
  check Alcotest.(list string) "a constructor, a label and a name reach them"
    []
    (shape
       "let k = Geom.Shape.Circle
        let d = { Geom.Shape.w = 1; h = 2 }
        let s : Geom.Shape.spare = 0
")

let test_unused_export_keep () =
  let findings, stale =
    unused
      ~keep:[ ("Geom.Vec.*", "why"); ("Geom.Gone.f", "why") ]
      [ ("test/test_vec.ml", "let () = assert (Geom.Vec.scale 1 1 = 1)\n") ]
  in
  check Alcotest.(list string) "Module.* keeps the module and its values" []
    findings;
  check Alcotest.(list string) "an entry excusing nothing is stale"
    [ "Geom.Gone.f" ] stale

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)
(* ------------------------------------------------------------------ *)

let test_finding_json () =
  let f =
    {
      Finding.rule = "SHARED-ACCESS";
      severity = Finding.Error;
      file = "lib/a \"b\".ml";
      line = 3;
      col = 7;
      message = "say \"hi\"\tnow";
    }
  in
  check Alcotest.string "one object per line, escapes intact"
    "{\"rule\":\"SHARED-ACCESS\",\"severity\":\"error\",\"file\":\"lib/a \
     \\\"b\\\".ml\",\"line\":3,\"col\":7,\"message\":\"say \\\"hi\\\"\\tnow\"}"
    (Finding.to_json f)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lint"
    [
      ( "monotonic-time",
        [
          Alcotest.test_case "positive" `Quick test_monotonic_positive;
          Alcotest.test_case "negative" `Quick test_monotonic_negative;
        ] );
      ( "raw-io",
        [
          Alcotest.test_case "positive" `Quick test_raw_io_positive;
          Alcotest.test_case "negative" `Quick test_raw_io_negative;
        ] );
      ( "condition-wait-loop",
        [
          Alcotest.test_case "positive" `Quick test_condition_wait_positive;
          Alcotest.test_case "negative" `Quick test_condition_wait_negative;
        ] );
      ( "catch-all-exn",
        [
          Alcotest.test_case "positive" `Quick test_catch_all_positive;
          Alcotest.test_case "negative" `Quick test_catch_all_negative;
        ] );
      ( "blocking-under-lock",
        [
          Alcotest.test_case "positive" `Quick test_blocking_positive;
          Alcotest.test_case "negative" `Quick test_blocking_negative;
        ] );
      ( "lock-order",
        [
          Alcotest.test_case "positive" `Quick test_lock_order_positive;
          Alcotest.test_case "negative" `Quick test_lock_order_negative;
        ] );
      ( "shared-access",
        [
          Alcotest.test_case "positive" `Quick test_shared_access_positive;
          Alcotest.test_case "partial coverage" `Quick
            test_shared_access_partial_coverage;
          Alcotest.test_case "two locks, two modules" `Quick
            test_shared_access_two_locks;
          Alcotest.test_case "negative" `Quick test_shared_access_negative;
          Alcotest.test_case "event-loop origin" `Quick
            test_shared_access_loop;
          Alcotest.test_case "a function passed as a value" `Quick
            test_shared_access_passed_function;
          Alcotest.test_case "stale allow entries" `Quick test_stale_allow;
        ] );
      ( "atomic-discipline",
        [
          Alcotest.test_case "positive" `Quick test_atomic_discipline_positive;
          Alcotest.test_case "negative" `Quick test_atomic_discipline_negative;
        ] );
      ( "unused-export",
        [
          Alcotest.test_case "positive" `Quick test_unused_export_positive;
          Alcotest.test_case "negative" `Quick test_unused_export_negative;
          Alcotest.test_case "keep list" `Quick test_unused_export_keep;
          Alcotest.test_case "exported types" `Quick test_unused_export_types;
        ] );
      ("determinism", [ QCheck_alcotest.to_alcotest order_stability_property ]);
      ("json", [ Alcotest.test_case "finding to_json" `Quick test_finding_json ]);
    ]
