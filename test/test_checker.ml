(* Tests for the atomicity checker, the brute-force oracle, the weaker
   consistency levels, and the MWA0–MWA4 property checker. *)

open Histories
open Checker

let check = Alcotest.check
let bool = Alcotest.bool

let w ~id ?(proc = 0) ~v ~inv ~resp () =
  Op.write ~id ~proc:(Op.Writer proc) ~value:v ~inv ~resp

let r ~id ?(proc = 0) ~inv ~resp ~result () =
  Op.read ~id ~proc:(Op.Reader proc) ~inv ~resp ~result

let atomic h = Atomicity.is_atomic h

let witness_short h =
  match Atomicity.check h with
  | Ok () -> "ok"
  | Error wit -> Witness.short wit

(* ------------------------------------------------------------------ *)
(* Atomicity: handcrafted cases                                         *)
(* ------------------------------------------------------------------ *)

let test_empty_history () = check bool "empty atomic" true (atomic (History.of_ops []))

let test_sequential_ok () =
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        r ~id:1 ~inv:2.0 ~resp:(Some 3.0) ~result:(Some 1) ();
        w ~id:2 ~proc:1 ~v:2 ~inv:4.0 ~resp:(Some 5.0) ();
        r ~id:3 ~inv:6.0 ~resp:(Some 7.0) ~result:(Some 2) ();
      ]
  in
  check bool "sequential atomic" true (atomic h)

let test_read_initial_ok () =
  let h =
    History.of_ops [ r ~id:0 ~inv:0.0 ~resp:(Some 1.0) ~result:(Some History.initial_value) () ]
  in
  check bool "initial read atomic" true (atomic h)

let test_read_initial_after_write_bad () =
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        r ~id:1 ~inv:2.0 ~resp:(Some 3.0) ~result:(Some History.initial_value) ();
      ]
  in
  check bool "initial after write not atomic" false (atomic h);
  check Alcotest.string "classified as stale" "stale-read" (witness_short h)

let test_unwritten_value () =
  let h = History.of_ops [ r ~id:0 ~inv:0.0 ~resp:(Some 1.0) ~result:(Some 99) () ] in
  check Alcotest.string "unwritten" "unwritten-value" (witness_short h)

let test_future_read () =
  let h =
    History.of_ops
      [
        r ~id:0 ~inv:0.0 ~resp:(Some 1.0) ~result:(Some 5) ();
        w ~id:1 ~v:5 ~inv:2.0 ~resp:(Some 3.0) ();
      ]
  in
  check Alcotest.string "future read" "future-read" (witness_short h)

let test_stale_read () =
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        w ~id:1 ~proc:1 ~v:2 ~inv:2.0 ~resp:(Some 3.0) ();
        r ~id:2 ~inv:4.0 ~resp:(Some 5.0) ~result:(Some 1) ();
      ]
  in
  check Alcotest.string "stale" "stale-read" (witness_short h)

let test_concurrent_write_either_value_ok () =
  (* Read concurrent with a write: both old and new values legal. *)
  let base result =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        w ~id:1 ~proc:1 ~v:2 ~inv:2.0 ~resp:(Some 10.0) ();
        r ~id:2 ~inv:3.0 ~resp:(Some 4.0) ~result:(Some result) ();
      ]
  in
  check bool "old value ok" true (atomic (base 1));
  check bool "new value ok" true (atomic (base 2))

let test_new_old_inversion () =
  (* Both reads concurrent with the write, but sequential with each
     other: new-then-old is the classic atomicity violation. *)
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        w ~id:1 ~proc:1 ~v:2 ~inv:2.0 ~resp:(Some 20.0) ();
        r ~id:2 ~proc:0 ~inv:3.0 ~resp:(Some 4.0) ~result:(Some 2) ();
        r ~id:3 ~proc:1 ~inv:5.0 ~resp:(Some 6.0) ~result:(Some 1) ();
      ]
  in
  check bool "inversion rejected" false (atomic h);
  (* The reversed order (old then new) is fine. *)
  let h' =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        w ~id:1 ~proc:1 ~v:2 ~inv:2.0 ~resp:(Some 20.0) ();
        r ~id:2 ~proc:0 ~inv:3.0 ~resp:(Some 4.0) ~result:(Some 1) ();
        r ~id:3 ~proc:1 ~inv:5.0 ~resp:(Some 6.0) ~result:(Some 2) ();
      ]
  in
  check bool "old then new fine" true (atomic h')

let test_pending_write_may_take_effect () =
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:None ();
        r ~id:1 ~inv:5.0 ~resp:(Some 6.0) ~result:(Some 1) ();
      ]
  in
  check bool "pending write readable" true (atomic h);
  let h' =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:None ();
        r ~id:1 ~inv:5.0 ~resp:(Some 6.0) ~result:(Some History.initial_value) ();
      ]
  in
  check bool "pending write ignorable" true (atomic h')

let test_pending_read_ignored () =
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        r ~id:1 ~inv:2.0 ~resp:None ~result:None ();
      ]
  in
  check bool "pending read ignored" true (atomic h)

let test_cycle_via_two_readers () =
  (* w1 || w2; reader A sees 1 then 2, reader B sees 2 then 1: the write
     order obligations form a cycle. *)
  let h =
    History.of_ops
      [
        w ~id:0 ~proc:0 ~v:1 ~inv:0.0 ~resp:(Some 100.0) ();
        w ~id:1 ~proc:1 ~v:2 ~inv:0.0 ~resp:(Some 100.0) ();
        r ~id:2 ~proc:0 ~inv:1.0 ~resp:(Some 2.0) ~result:(Some 1) ();
        r ~id:3 ~proc:0 ~inv:3.0 ~resp:(Some 4.0) ~result:(Some 2) ();
        r ~id:4 ~proc:1 ~inv:1.0 ~resp:(Some 2.0) ~result:(Some 2) ();
        r ~id:5 ~proc:1 ~inv:3.0 ~resp:(Some 4.0) ~result:(Some 1) ();
      ]
  in
  check bool "conflicting orders rejected" false (atomic h);
  check Alcotest.string "cycle witness" "ordering-cycle" (witness_short h)

let test_rejects_non_unique () =
  let h =
    History.of_ops
      [
        w ~id:0 ~proc:0 ~v:5 ~inv:0.0 ~resp:(Some 1.0) ();
        w ~id:1 ~proc:1 ~v:5 ~inv:2.0 ~resp:(Some 3.0) ();
      ]
  in
  check bool "invalid-arg on duplicate values" true
    (try
       ignore (Atomicity.check h);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Linearizability oracle                                               *)
(* ------------------------------------------------------------------ *)

let test_oracle_simple () =
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        r ~id:1 ~inv:2.0 ~resp:(Some 3.0) ~result:(Some 1) ();
      ]
  in
  (match Linearizability.linearize h with
  | Some order -> check Alcotest.int "both ops in order" 2 (List.length order)
  | None -> Alcotest.fail "should linearize");
  check bool "check" true (Linearizability.check h)

let test_oracle_rejects_stale () =
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        w ~id:1 ~proc:1 ~v:2 ~inv:2.0 ~resp:(Some 3.0) ();
        r ~id:2 ~inv:4.0 ~resp:(Some 5.0) ~result:(Some 1) ();
      ]
  in
  check bool "oracle rejects" false (Linearizability.check h)

let test_oracle_size_limit () =
  let ops =
    List.init 70 (fun i -> w ~id:i ~proc:0 ~v:(i + 1) ~inv:(float_of_int (2 * i)) ~resp:(Some (float_of_int ((2 * i) + 1))) ())
  in
  check bool "too large raises" true
    (try
       ignore (Linearizability.check (History.of_ops ops));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Oracle cross-validation (the key property test)                      *)
(* ------------------------------------------------------------------ *)

(* Random small well-formed histories with unique writes.  Reads return
   a value from the written pool, the initial value, or (rarely) garbage,
   so both accept and reject paths are exercised. *)
let history_gen =
  let open QCheck.Gen in
  let* n_writers = int_range 1 3 in
  let* n_readers = int_range 1 3 in
  let* ops_per_proc = int_range 1 3 in
  let value_pool = List.init (n_writers * ops_per_proc) (fun i -> i + 1) in
  let op_times = float_range 0.0 20.0 in
  let gen_proc_ops ~writer pidx =
    let* base_times =
      list_repeat ops_per_proc (pair op_times (float_range 0.1 5.0))
    in
    let sorted = List.sort compare (List.map fst base_times) in
    let durs = List.map snd base_times in
    (* Space the ops out sequentially: inv_i >= resp_{i-1}. *)
    let rec build acc time = function
      | [], _ | _, [] -> return (List.rev acc)
      | t :: ts, d :: ds ->
        let inv = Float.max time t in
        let resp = inv +. d in
        build ((inv, resp) :: acc) (resp +. 0.01) (ts, ds)
    in
    let* intervals = build [] 0.0 (sorted, durs) in
    let* ops =
      flatten_l
        (List.mapi
           (fun i (inv, resp) ->
             let id = (pidx * 100) + i in
             if writer then
               let v = (pidx * ops_per_proc) + i + 1 in
               let* pending = frequency [ (9, return false); (1, return true) ] in
               return
                 (w ~id ~proc:pidx ~v ~inv ~resp:(if pending then None else Some resp) ())
             else
               let* result =
                 frequency
                   [
                     (6, oneofl (History.initial_value :: value_pool));
                     (1, return 999);
                   ]
               in
               return (r ~id ~proc:(pidx - 10) ~inv ~resp:(Some resp) ~result:(Some result) ()))
           intervals)
    in
    (* A pending write must be its process's last op: truncate after it. *)
    let rec cut = function
      | [] -> []
      | (o : Op.t) :: rest -> if Op.is_complete o then o :: cut rest else [ o ]
    in
    return (cut ops)
  in
  let* writer_ops =
    flatten_l (List.init n_writers (fun i -> gen_proc_ops ~writer:true i))
  in
  let* reader_ops =
    flatten_l (List.init n_readers (fun i -> gen_proc_ops ~writer:false (i + 10)))
  in
  return (History.of_ops (List.concat (writer_ops @ reader_ops)))

let history_arb =
  QCheck.make
    ~print:(fun h -> Format.asprintf "%a" History.pp h)
    history_gen

(* The zone order yields a valid linearization exactly on atomic
   histories ([linearization] re-validates its answer). *)
let linearization_equivalence =
  QCheck.Test.make ~name:"linearization exists iff the checker accepts"
    ~count:2000 history_arb (fun h ->
      QCheck.assume (History.well_formed h = Ok ());
      QCheck.assume (History.unique_writes h);
      (Atomicity.linearization h <> None) = Atomicity.is_atomic h)

let oracle_equivalence =
  QCheck.Test.make ~name:"atomicity checker agrees with brute-force oracle"
    ~count:2000 history_arb (fun h ->
      QCheck.assume (History.well_formed h = Ok ());
      QCheck.assume (History.unique_writes h);
      let fast =
        match Atomicity.check h with
        | Ok () -> true
        | Error w -> (
          (* Unwritten garbage values: the oracle agrees they fail. *)
          match w.Witness.reason with _ -> false)
      in
      let slow = Linearizability.check h in
      fast = slow)

let atomic_implies_regular =
  QCheck.Test.make ~name:"atomic histories are regular" ~count:500 history_arb
    (fun h ->
      QCheck.assume (History.well_formed h = Ok ());
      QCheck.assume (History.unique_writes h);
      QCheck.assume (Atomicity.is_atomic h);
      Consistency.check_regular h = Ok ())

let regular_implies_safe =
  QCheck.Test.make ~name:"regular histories are safe" ~count:500 history_arb
    (fun h ->
      QCheck.assume (History.well_formed h = Ok ());
      QCheck.assume (History.unique_writes h);
      QCheck.assume (Consistency.check_regular h = Ok ());
      Consistency.check_safe h = Ok ())

(* ------------------------------------------------------------------ *)
(* Consistency ladder                                                   *)
(* ------------------------------------------------------------------ *)

let test_regular_not_atomic () =
  (* New/old inversion is regular (each read individually fine) but not
     atomic. *)
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        w ~id:1 ~proc:1 ~v:2 ~inv:2.0 ~resp:(Some 20.0) ();
        r ~id:2 ~proc:0 ~inv:3.0 ~resp:(Some 4.0) ~result:(Some 2) ();
        r ~id:3 ~proc:1 ~inv:5.0 ~resp:(Some 6.0) ~result:(Some 1) ();
      ]
  in
  check bool "not atomic" false (Atomicity.is_atomic h);
  check bool "regular" true (Consistency.check_regular h = Ok ());
  check Alcotest.string "classified regular" "regular"
    (Consistency.level_to_string (Consistency.classify h))

let test_safe_not_regular () =
  (* A read overlapping a write may return anything written; here it
     returns a value two writes stale — not regular, still safe. *)
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        w ~id:1 ~v:2 ~inv:2.0 ~resp:(Some 3.0) ();
        w ~id:2 ~proc:1 ~v:3 ~inv:4.0 ~resp:(Some 20.0) ();
        r ~id:3 ~inv:5.0 ~resp:(Some 6.0) ~result:(Some 1) ();
      ]
  in
  check bool "not regular" true (Result.is_error (Consistency.check_regular h));
  check bool "safe" true (Consistency.check_safe h = Ok ());
  check Alcotest.string "classified safe" "safe"
    (Consistency.level_to_string (Consistency.classify h))

let test_inconsistent () =
  (* Stale read with no concurrent write: not even safe. *)
  let h =
    History.of_ops
      [
        w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ();
        w ~id:1 ~v:2 ~inv:2.0 ~resp:(Some 3.0) ();
        r ~id:2 ~inv:4.0 ~resp:(Some 5.0) ~result:(Some 1) ();
      ]
  in
  check Alcotest.string "classified inconsistent" "inconsistent"
    (Consistency.level_to_string (Consistency.classify h))

let test_level_order () =
  check bool "ladder ordered" true
    Consistency.(
      compare_level Inconsistent Safe < 0
      && compare_level Safe Regular < 0
      && compare_level Regular Atomic < 0)

(* ------------------------------------------------------------------ *)
(* MWA properties                                                       *)
(* ------------------------------------------------------------------ *)

let tag ts wid = { Mw_properties.ts; wid }

let tw ~id ?(proc = 0) ~v ~inv ~resp t =
  { Mw_properties.op = w ~id ~proc ~v ~inv ~resp (); tag = Some t }

let tr ~id ?(proc = 0) ~inv ~resp ~result t =
  { Mw_properties.op = r ~id ~proc ~inv ~resp ~result (); tag = Some t }

let test_mwa_all_ok () =
  let tagged =
    [
      tw ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) (tag 1 0);
      tr ~id:1 ~inv:2.0 ~resp:(Some 3.0) ~result:(Some 1) (tag 1 0);
      tw ~id:2 ~proc:1 ~v:2 ~inv:4.0 ~resp:(Some 5.0) (tag 2 1);
      tr ~id:3 ~inv:6.0 ~resp:(Some 7.0) ~result:(Some 2) (tag 2 1);
    ]
  in
  check bool "all ok" true (Mw_properties.all_ok (Mw_properties.check tagged))

let test_mwa0_violation () =
  let tagged =
    [
      tw ~id:0 ~proc:1 ~v:1 ~inv:0.0 ~resp:(Some 1.0) (tag 1 1);
      tw ~id:1 ~proc:0 ~v:2 ~inv:2.0 ~resp:(Some 3.0) (tag 1 0);
    ]
  in
  let report = Mw_properties.check tagged in
  check bool "MWA0 fails" true (report.Mw_properties.mwa0 <> None)

let test_mwa1_violation () =
  let tagged = [ tr ~id:0 ~inv:0.0 ~resp:(Some 1.0) ~result:(Some 0) (tag (-1) 0) ] in
  check bool "MWA1 fails" true ((Mw_properties.check tagged).Mw_properties.mwa1 <> None)

let test_mwa2_violation () =
  let tagged =
    [
      tw ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) (tag 5 0);
      tr ~id:1 ~inv:2.0 ~resp:(Some 3.0) ~result:(Some 0) (tag 1 0);
    ]
  in
  check bool "MWA2 fails" true ((Mw_properties.check tagged).Mw_properties.mwa2 <> None)

let test_mwa3_violation () =
  let tagged =
    [
      tr ~id:0 ~inv:0.0 ~resp:(Some 1.0) ~result:(Some 1) (tag 1 0);
      tw ~id:1 ~v:1 ~inv:2.0 ~resp:(Some 3.0) (tag 1 0);
    ]
  in
  check bool "MWA3 fails" true ((Mw_properties.check tagged).Mw_properties.mwa3 <> None)

let test_mwa3_no_such_write () =
  let tagged = [ tr ~id:0 ~inv:0.0 ~resp:(Some 1.0) ~result:(Some 1) (tag 7 3) ] in
  check bool "MWA3 fails on phantom tag" true
    ((Mw_properties.check tagged).Mw_properties.mwa3 <> None)

let test_mwa4_violation () =
  let tagged =
    [
      tw ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 100.0) (tag 1 0);
      tr ~id:1 ~proc:0 ~inv:1.0 ~resp:(Some 2.0) ~result:(Some 1) (tag 1 0);
      tr ~id:2 ~proc:1 ~inv:3.0 ~resp:(Some 4.0) ~result:(Some 0)
        Mw_properties.initial_tag;
    ]
  in
  check bool "MWA4 fails (new/old inversion)" true
    ((Mw_properties.check tagged).Mw_properties.mwa4 <> None)

let test_mwa_initial_tag_reads_ok () =
  let tagged =
    [ tr ~id:0 ~inv:0.0 ~resp:(Some 1.0) ~result:(Some 0) Mw_properties.initial_tag ]
  in
  check bool "initial read fine" true (Mw_properties.all_ok (Mw_properties.check tagged))

let test_tag_order () =
  let cmp = Mw_properties.compare_tag in
  check bool "ts dominates" true (cmp (tag 1 5) (tag 2 0) < 0);
  check bool "wid breaks ties" true (cmp (tag 2 0) (tag 2 1) < 0);
  check bool "initial smallest" true (cmp Mw_properties.initial_tag (tag 0 0) < 0)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "checker"
    [
      ( "atomicity",
        [
          tc "empty" test_empty_history;
          tc "sequential ok" test_sequential_ok;
          tc "read initial ok" test_read_initial_ok;
          tc "initial after write bad" test_read_initial_after_write_bad;
          tc "unwritten value" test_unwritten_value;
          tc "future read" test_future_read;
          tc "stale read" test_stale_read;
          tc "concurrent write, either value" test_concurrent_write_either_value_ok;
          tc "new/old inversion" test_new_old_inversion;
          tc "pending write both ways" test_pending_write_may_take_effect;
          tc "pending read ignored" test_pending_read_ignored;
          tc "reader order cycle" test_cycle_via_two_readers;
          tc "rejects non-unique" test_rejects_non_unique;
        ] );
      ( "oracle",
        [
          tc "simple" test_oracle_simple;
          tc "rejects stale" test_oracle_rejects_stale;
          tc "size limit" test_oracle_size_limit;
          QCheck_alcotest.to_alcotest oracle_equivalence;
          QCheck_alcotest.to_alcotest linearization_equivalence;
        ] );
      ( "consistency",
        [
          tc "regular not atomic" test_regular_not_atomic;
          tc "safe not regular" test_safe_not_regular;
          tc "inconsistent" test_inconsistent;
          tc "level order" test_level_order;
          QCheck_alcotest.to_alcotest atomic_implies_regular;
          QCheck_alcotest.to_alcotest regular_implies_safe;
        ] );
      ( "mw-properties",
        [
          tc "all ok" test_mwa_all_ok;
          tc "MWA0" test_mwa0_violation;
          tc "MWA1" test_mwa1_violation;
          tc "MWA2" test_mwa2_violation;
          tc "MWA3" test_mwa3_violation;
          tc "MWA3 phantom" test_mwa3_no_such_write;
          tc "MWA4" test_mwa4_violation;
          tc "initial tag ok" test_mwa_initial_tag_reads_ok;
          tc "tag order" test_tag_order;
        ] );
    ]
