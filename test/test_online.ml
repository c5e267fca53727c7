(* The streaming checker against the batch checker and the Wing-Gong
   oracle: identical verdicts (and witnesses of the same kinds when
   nothing retired) on randomized histories, fed in completion order,
   with no, aggressive and random watermark advances. *)

open Histories
open Checker

let check = Alcotest.check
let bool = Alcotest.bool

let w ~id ?(proc = 0) ~v ~inv ~resp () =
  Op.write ~id ~proc:(Op.Writer proc) ~value:v ~inv ~resp

let r ~id ?(proc = 0) ~inv ~resp ~result () =
  Op.read ~id ~proc:(Op.Reader proc) ~inv ~resp ~result

(* ------------------------------------------------------------------ *)
(* Feeding a recorded history into the streaming checker                *)
(* ------------------------------------------------------------------ *)

(* Completion order: what a live sink sees.  Pending writes land last,
   like the sinks flushing in-flight operations at session end. *)
let completion_order h =
  List.sort
    (fun (a : Op.t) (b : Op.t) ->
      let key (o : Op.t) =
        ((match o.Op.resp with Some f -> f | None -> infinity), o.Op.inv, o.Op.id)
      in
      compare (key a) (key b))
    (History.ops h)

let online_verdict h =
  let t = Online.create () in
  List.iter (Online.feed t) (completion_order h);
  Online.finalize t

(* Maximal GC pressure: before each feed, raise the watermark to the
   lowest invocation among not-yet-fed operations — exactly the
   in-flight low-watermark a sink derives, at its tightest. *)
let online_verdict_gc h =
  let t = Online.create () in
  let rec go = function
    | [] -> ()
    | (o : Op.t) :: rest ->
      let wm =
        List.fold_left
          (fun acc (u : Op.t) -> Float.min acc u.Op.inv)
          o.Op.inv rest
      in
      Online.advance t ~watermark:wm;
      Online.feed t o;
      go rest
  in
  go (completion_order h);
  Online.finalize t

(* ------------------------------------------------------------------ *)
(* Witness validity                                                     *)
(* ------------------------------------------------------------------ *)

let rho_of h (rd : Op.t) =
  match rd.Op.result with
  | None -> None
  | Some v ->
    if v = History.initial_value then Some Atomicity.initial_write
    else
      List.find_opt
        (fun (o : Op.t) -> Op.written_value o = Some v)
        (History.ops h)

(* The zone core names direct 2-cycles, so consecutive witness nodes
   must be joined by an obligation edge. *)
let obligation_edge h (u : Op.t) (v : Op.t) =
  let reads = List.filter Op.is_complete (History.reads h) in
  Op.precedes u v (* E1 *)
  || List.exists
       (fun rd -> rho_of h rd = Some v && Op.precedes u rd)
       reads (* E2 *)
  || List.exists
       (fun r1 ->
         rho_of h r1 = Some u
         && List.exists
              (fun r2 -> rho_of h r2 = Some v && Op.precedes r1 r2)
              reads)
       reads (* E3 *)
  || List.exists
       (fun rd -> rho_of h rd = Some u && Op.precedes rd v)
       reads (* E4 *)

let witness_valid h (wit : Witness.t) =
  let mem (o : Op.t) =
    o.Op.id = Atomicity.initial_write.Op.id || History.find h o.Op.id <> None
  in
  match wit.Witness.reason with
  | Witness.Unwritten_value { read; value } ->
    mem read
    && read.Op.result = Some value
    && not
         (List.exists
            (fun (o : Op.t) -> Op.written_value o = Some value)
            (History.ops h))
  | Witness.Future_read { read; write } ->
    mem read && mem write
    && read.Op.result = Op.written_value write
    && Op.precedes read write
  | Witness.Stale_read { read; write; newer } ->
    mem read && mem write && mem newer
    && read.Op.result = Op.written_value write
    && Op.precedes write newer && Op.precedes newer read
  | Witness.Ordering_cycle ops ->
    List.length ops >= 2
    && List.for_all mem ops
    && (let arr = Array.of_list ops in
        let n = Array.length arr in
        let ok = ref true in
        for i = 0 to n - 1 do
          if not (obligation_edge h arr.(i) arr.((i + 1) mod n)) then ok := false
        done;
        !ok)
  | Witness.Property _ ->
    (* GC-boundary witnesses name violations against retired state; the
       executable cross-check is the batch verdict, asserted by the
       equivalence property itself. *)
    not (Atomicity.is_atomic h)

(* ------------------------------------------------------------------ *)
(* Randomized equivalence                                               *)
(* ------------------------------------------------------------------ *)

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
                 (w ~id ~proc:pidx ~v ~inv
                    ~resp:(if pending then None else Some resp)
                    ())
             else
               let* result =
                 frequency
                   [
                     (6, oneofl (History.initial_value :: value_pool));
                     (1, return 999);
                   ]
               in
               return
                 (r ~id ~proc:(pidx - 10) ~inv ~resp:(Some resp)
                    ~result:(Some result) ()))
           intervals)
    in
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
  QCheck.make ~print:(fun h -> Format.asprintf "%a" History.pp h) history_gen

(* Reads re-pointed at one of the two latest writes invoked before they
   respond: histories near the atomicity boundary, where a violation can
   hinge on a cluster that already retired. *)
let near_atomic_gen =
  let open QCheck.Gen in
  let* h = history_gen in
  let resp_of (o : Op.t) = Option.value o.Op.resp ~default:infinity in
  let repoint (o : Op.t) =
    match o.Op.resp with
    | Some resp when Op.is_read o ->
      let latest =
        List.filter (fun (w : Op.t) -> w.Op.inv < resp) (History.writes h)
        |> List.sort (fun a b -> Float.compare (resp_of b) (resp_of a))
        |> List.filter_map Op.written_value
      in
      let+ i = int_bound 1 in
      let values = latest @ [ History.initial_value ] in
      { o with Op.result = Some (List.nth values (min i (List.length values - 1))) }
    | _ -> return o
  in
  let+ ops = flatten_l (List.map repoint (History.ops h)) in
  History.of_ops ops

let agree name verdict_of =
  QCheck.Test.make ~name ~count:2000 history_arb (fun h ->
      QCheck.assume (History.well_formed h = Ok ());
      QCheck.assume (History.unique_writes h);
      let batch = Atomicity.check h in
      let online = verdict_of h in
      (match (batch, online) with
      | Ok (), Ok () -> true
      | Error bw, Error ow -> witness_valid h bw && witness_valid h ow
      | Ok (), Error ow ->
        QCheck.Test.fail_reportf "online violation on atomic history:@ %a"
          Witness.pp ow
      | Error bw, Ok () ->
        QCheck.Test.fail_reportf "online missed violation:@ %a" Witness.pp bw))

let equiv_no_gc = agree "online verdict matches batch (no GC)" online_verdict

let equiv_gc =
  agree "online verdict matches batch (aggressive window GC)"
    online_verdict_gc

(* Random watermark advances, each as high as the feed contract allows
   or lower: streaming, batch and the brute-force oracle agree. *)
let online_verdict_random fracs h =
  let t = Online.create () in
  let rec go fracs = function
    | [] -> ()
    | (o : Op.t) :: rest ->
      let f, fracs = match fracs with f :: fs -> (f, fs) | [] -> (0.0, []) in
      let bound =
        List.fold_left (fun acc (u : Op.t) -> Float.min acc u.Op.inv) o.Op.inv rest
      in
      if f > 0.3 then Online.advance t ~watermark:(bound -. (10.0 *. (1.0 -. f)));
      Online.feed t o;
      go fracs rest
  in
  go fracs (completion_order h);
  Online.finalize t

let three_way =
  QCheck.Test.make ~name:"streaming, batch and oracle agree (random advances)"
    ~count:2000
    (QCheck.pair
       (QCheck.make
          ~print:(fun h -> Format.asprintf "%a" History.pp h)
          QCheck.Gen.(frequency [ (1, history_gen); (3, near_atomic_gen) ]))
       (QCheck.make QCheck.Gen.(list_size (int_bound 30) (float_bound_inclusive 1.0))))
    (fun (h, fracs) ->
      QCheck.assume (History.well_formed h = Ok ());
      QCheck.assume (History.unique_writes h);
      QCheck.assume (History.length h <= Linearizability.max_ops);
      let batch = Atomicity.is_atomic h in
      let online = online_verdict_random fracs h = Ok () in
      batch = online && batch = Linearizability.check h)

(* Without GC the streaming checker reproduces the batch checker's
   witness kinds, not just its verdicts. *)
let witness_kinds_no_gc =
  QCheck.Test.make ~name:"online witness kinds match batch kinds (no GC)"
    ~count:2000 history_arb (fun h ->
      QCheck.assume (History.well_formed h = Ok ());
      QCheck.assume (History.unique_writes h);
      match (Atomicity.check h, online_verdict h) with
      | Ok (), Ok () -> true
      | Error _, Error ow -> (
        match ow.Witness.reason with
        | Witness.Unwritten_value _ | Witness.Future_read _
        | Witness.Stale_read _ | Witness.Ordering_cycle _ -> true
        | Witness.Property _ ->
          QCheck.Test.fail_reportf
            "no-GC online run produced a GC-boundary witness:@ %a" Witness.pp ow)
      | Ok (), Error _ | Error _, Ok () ->
        QCheck.Test.fail_report "verdicts diverged")

(* The live sink against the batch checker: a history replayed through
   a [Check_sink], one port per process on its own thread (at least
   three ports; spare ones stay idle), on a virtual clock the threads
   advance in event order.  The thread owning the next event — an
   invocation or a response — sets the clock to its time and publishes
   it through [invoked] / [completed]; every third event it sleeps past
   the sink's drain interval, so the checker thread advances the
   watermark mid-run.  Pending operations are published after the last
   event, as an aborted client publishes its operation. *)
module Sink = Transport.Check_sink

let sink_report h =
  let clock = Atomic.make 0.0 in
  let sink = Sink.create ~now:(fun () -> Atomic.get clock) () in
  let ops = History.ops h in
  let procs = List.sort_uniq compare (List.map (fun (o : Op.t) -> o.Op.proc) ops) in
  let ports = Array.init (max 3 (List.length procs)) (fun _ -> Sink.port sink) in
  let port_of (o : Op.t) =
    let rec index i = function
      | p :: rest -> if p = o.Op.proc then i else index (i + 1) rest
      | [] -> assert false
    in
    index 0 procs
  in
  let events =
    List.concat_map
      (fun (o : Op.t) ->
        (o.Op.inv, o, false)
        :: (match o.Op.resp with Some t -> [ (t, o, true) ] | None -> []))
      ops
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b)
    |> Array.of_list
  in
  let next = Atomic.make 0 in
  let body i () =
    let rec replay () =
      let k = Atomic.get next in
      if k < Array.length events then begin
        let t, o, responded = events.(k) in
        if port_of o = i then begin
          Atomic.set clock t;
          if responded then Sink.completed ports.(i) ~key:"k" o
          else ignore (Sink.invoked ports.(i));
          if k mod 3 = 2 then Thread.delay 0.0015;
          Atomic.set next (k + 1)
        end
        else Thread.yield ();
        replay ()
      end
    in
    replay ();
    List.iter
      (fun (o : Op.t) ->
        if port_of o = i && o.Op.resp = None then Sink.completed ports.(i) ~key:"k" o)
      ops
  in
  Sink.start sink;
  List.iter Thread.join
    (List.init (Array.length ports) (fun i -> Thread.create (body i) ()));
  Sink.stop sink

let sink_agrees =
  QCheck.Test.make ~name:"sink verdict matches batch (ports on threads)"
    ~count:150
    (QCheck.make
       ~print:(fun h -> Format.asprintf "%a" History.pp h)
       QCheck.Gen.(frequency [ (1, history_gen); (1, near_atomic_gen) ]))
    (fun h ->
      QCheck.assume (History.well_formed h = Ok ());
      QCheck.assume (History.unique_writes h);
      let report = sink_report h in
      report.Sink.checked = History.length h
      && Sink.atomic report = Atomicity.is_atomic h)

(* ------------------------------------------------------------------ *)
(* Handcrafted streaming cases                                          *)
(* ------------------------------------------------------------------ *)

let test_stream_atomic () =
  let t = Online.create () in
  Online.feed t (w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ());
  Online.feed t (r ~id:1 ~inv:2.0 ~resp:(Some 3.0) ~result:(Some 1) ());
  Online.feed t (w ~id:2 ~proc:1 ~v:2 ~inv:4.0 ~resp:(Some 5.0) ());
  Online.feed t (r ~id:3 ~inv:6.0 ~resp:(Some 7.0) ~result:(Some 2) ());
  check bool "atomic" true (Online.finalize t = Ok ())

let test_stream_stale_before_gc () =
  let t = Online.create () in
  Online.feed t (w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ());
  Online.feed t (w ~id:1 ~proc:1 ~v:2 ~inv:2.0 ~resp:(Some 3.0) ());
  Online.feed t (r ~id:2 ~inv:4.0 ~resp:(Some 5.0) ~result:(Some 1) ());
  match Online.verdict t with
  | Error wit ->
    check Alcotest.string "stale" "stale-read" (Witness.short wit)
  | Ok () -> Alcotest.fail "stale read not detected"

(* The Fresh-restart shape at a GC boundary: the superseded write is
   retired, then a read returns its value — flagged on sight, as a
   GC-boundary witness. *)
let test_stream_stale_after_gc () =
  let t = Online.create () in
  Online.feed t (w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ());
  Online.feed t (w ~id:1 ~proc:1 ~v:2 ~inv:2.0 ~resp:(Some 3.0) ());
  Online.feed t (w ~id:2 ~proc:0 ~v:3 ~inv:4.0 ~resp:(Some 5.0) ());
  (* Watermark 6.0: writes 1 and 2 are settled; write 1 is superseded
     and retires (so does the virtual initial write). *)
  Online.advance t ~watermark:6.0;
  check bool "superseded writes retired" true (Online.resident t <= 2);
  Online.feed t (r ~id:3 ~inv:7.0 ~resp:(Some 8.0) ~result:(Some 1) ());
  Online.advance t ~watermark:9.0;
  match Online.verdict t with
  | Error wit ->
    check Alcotest.string "flagged at the boundary" "stale-or-unwritten-read"
      (Witness.short wit)
  | Ok () -> Alcotest.fail "stale read of a retired write not detected"

let test_stream_parked_read_resolves () =
  (* The read completes (and is fed) before its write: it parks, then
     resolves when the write lands — no false alarm. *)
  let t = Online.create () in
  Online.feed t (r ~id:0 ~inv:1.0 ~resp:(Some 2.0) ~result:(Some 7) ());
  Online.advance t ~watermark:0.5 (* the write is still in flight *);
  check bool "no verdict while parked" true (Online.verdict t = Ok ());
  Online.feed t (w ~id:1 ~v:7 ~inv:0.0 ~resp:(Some 3.0) ());
  check bool "resolved clean" true (Online.finalize t = Ok ())

let test_stream_future_read_via_park () =
  let t = Online.create () in
  Online.feed t (r ~id:0 ~inv:0.0 ~resp:(Some 1.0) ~result:(Some 7) ());
  Online.feed t (w ~id:1 ~v:7 ~inv:2.0 ~resp:(Some 3.0) ());
  match Online.finalize t with
  | Error wit -> check Alcotest.string "future" "future-read" (Witness.short wit)
  | Ok () -> Alcotest.fail "future read not detected"

let test_stream_unwritten_at_finalize () =
  let t = Online.create () in
  Online.feed t (r ~id:0 ~inv:0.0 ~resp:(Some 1.0) ~result:(Some 99) ());
  match Online.finalize t with
  | Error wit ->
    check Alcotest.string "unwritten" "unwritten-value" (Witness.short wit)
  | Ok () -> Alcotest.fail "unwritten value not detected"

let test_window_stays_bounded () =
  (* A long sequential run: the window must stay O(1) while the ops
     count grows without bound. *)
  let t = Online.create () in
  let n = 20_000 in
  for i = 0 to n - 1 do
    let inv = float_of_int (4 * i) in
    Online.advance t ~watermark:inv;
    Online.feed t (w ~id:(2 * i) ~v:(i + 1) ~inv ~resp:(Some (inv +. 1.0)) ());
    Online.feed t
      (r ~id:((2 * i) + 1) ~inv:(inv +. 2.0) ~resp:(Some (inv +. 3.0))
         ~result:(Some (i + 1)) ())
  done;
  check bool "atomic" true (Online.finalize t = Ok ());
  check bool "saw everything" true (Online.ops_seen t = 2 * n);
  check bool
    (Printf.sprintf "peak window %d stays small" (Online.peak_resident t))
    true
    (Online.peak_resident t < 32)

(* A key goes quiet past the watermark (its last cluster collapses),
   then returns. *)
let quiet_then wm_after ops =
  let t = Online.create () in
  Online.feed t (w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ());
  Online.feed t (w ~id:1 ~proc:1 ~v:2 ~inv:2.0 ~resp:(Some 3.0) ());
  Online.feed t (r ~id:2 ~inv:4.0 ~resp:(Some 5.0) ~result:(Some 2) ());
  Online.advance t ~watermark:10.0;
  check Alcotest.int "collapsed" 0 (Online.resident t);
  List.iter (Online.feed t) ops;
  Online.advance t ~watermark:wm_after;
  Online.finalize t

let kind = function Ok () -> "ok" | Error wit -> Witness.short wit

let test_quiet_key_fresh () =
  check Alcotest.string "fresh reads and a new write" "ok"
    (kind
       (quiet_then 30.0
          [
            r ~id:3 ~inv:11.0 ~resp:(Some 12.0) ~result:(Some 2) ();
            w ~id:4 ~v:3 ~inv:13.0 ~resp:(Some 14.0) ();
            r ~id:5 ~proc:1 ~inv:15.0 ~resp:(Some 16.0) ~result:(Some 3) ();
          ]))

let test_quiet_key_stale () =
  (* Value 1 retired behind the watermark: flagged when the read settles. *)
  check Alcotest.string "stale read of a retired value"
    "stale-or-unwritten-read"
    (kind
       (quiet_then 30.0 [ r ~id:3 ~inv:11.0 ~resp:(Some 12.0) ~result:(Some 1) () ]));
  (* Value 2 is resident; a newer write settled before the read. *)
  check Alcotest.string "stale read of the resident value" "stale-read"
    (kind
       (quiet_then 30.0
          [
            w ~id:3 ~v:3 ~inv:11.0 ~resp:(Some 12.0) ();
            r ~id:4 ~inv:13.0 ~resp:(Some 14.0) ~result:(Some 2) ();
          ]))

let test_quiet_key_unwritten () =
  check Alcotest.string "unwritten read after quiet"
    "stale-or-unwritten-read"
    (kind (quiet_then 30.0 [ r ~id:3 ~inv:11.0 ~resp:(Some 12.0) ~result:(Some 99) () ]));
  (* Not flagged while the read's response is ahead of the watermark. *)
  check Alcotest.string "parked until the watermark passes it" "ok"
    (let t = Online.create () in
     Online.feed t (w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ());
     Online.advance t ~watermark:10.0;
     Online.feed t (r ~id:1 ~inv:11.0 ~resp:(Some 12.0) ~result:(Some 99) ());
     Online.advance t ~watermark:11.5;
     kind (Online.verdict t))

let test_quiet_key_retired_conflict () =
  (* Value 1's cluster (w0, late read r1) retires behind write 2; a
     later read of the concurrent write 3 closes a 2-cycle with it,
     found through [retired_b]. *)
  let t = Online.create () in
  Online.feed t (w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ());
  Online.feed t (w ~id:3 ~proc:2 ~v:3 ~inv:0.5 ~resp:(Some 5.0) ());
  Online.feed t (r ~id:1 ~inv:6.0 ~resp:(Some 7.0) ~result:(Some 1) ());
  Online.feed t (w ~id:2 ~proc:1 ~v:2 ~inv:2.0 ~resp:(Some 6.5) ());
  Online.advance t ~watermark:6.8;
  check bool "clean so far" true (Online.verdict t = Ok ());
  Online.feed t (r ~id:4 ~inv:7.0 ~resp:(Some 8.0) ~result:(Some 3) ());
  check Alcotest.string "retired conflict" "retired-ordering-cycle"
    (kind (Online.finalize t))

let test_keyed_window_bounded_by_flight () =
  (* 10 000 keys touched once each: collapsed keys count in [keys], not
     in the window. *)
  let t = Online.Keyed.create () in
  for i = 0 to 9_999 do
    let inv = float_of_int (2 * i) in
    let op =
      if i mod 2 = 0 then w ~id:i ~v:(i + 1) ~inv ~resp:(Some (inv +. 1.0)) ()
      else r ~id:i ~inv ~resp:(Some (inv +. 1.0)) ~result:(Some History.initial_value) ()
    in
    Online.Keyed.feed t ~key:(string_of_int i) op;
    Online.Keyed.advance t ~watermark:(inv +. 2.0)
  done;
  check Alcotest.int "keys" 10_000 (Online.Keyed.keys t);
  check bool
    (Printf.sprintf "peak window %d" (Online.Keyed.peak_resident t))
    true
    (Online.Keyed.peak_resident t <= 8);
  check bool "all atomic" true
    (List.for_all (fun (_, v) -> v = Ok ()) (Online.Keyed.finalize t))

let test_keyed_isolated_verdicts () =
  let fired = ref [] in
  let t =
    Online.Keyed.create ~on_violation:(fun key _ -> fired := key :: !fired) ()
  in
  Online.Keyed.feed t ~key:"a" (w ~id:0 ~v:1 ~inv:0.0 ~resp:(Some 1.0) ());
  Online.Keyed.feed t ~key:"b" (w ~id:1 ~v:2 ~inv:0.0 ~resp:(Some 1.0) ());
  Online.Keyed.feed t ~key:"a"
    (r ~id:2 ~inv:2.0 ~resp:(Some 3.0) ~result:(Some 1) ());
  (* Key b alone reads a never-written value. *)
  Online.Keyed.feed t ~key:"b"
    (r ~id:3 ~inv:2.0 ~resp:(Some 3.0) ~result:(Some 42) ());
  let verdicts = Online.Keyed.finalize t in
  check bool "a atomic" true (List.assoc "a" verdicts = Ok ());
  check bool "b flagged" true (List.assoc "b" verdicts <> Ok ());
  check (Alcotest.list Alcotest.string) "violation hook fired for b" [ "b" ]
    !fired;
  check bool "two keys" true (Online.Keyed.keys t = 2)

(* The recorder's completion hook is the simulator-plane wiring point:
   every finished operation streams straight into the checker. *)
let test_recorder_hook_feeds_online () =
  let t = Online.create () in
  let rec_ = Recorder.create ~on_complete:(Online.feed t) () in
  let proc = Op.Writer 0 in
  let h1 = Recorder.begin_write rec_ ~proc ~value:1 ~now:0.0 in
  Recorder.finish_write rec_ h1 ~now:1.0;
  let rproc = Op.Reader 0 in
  let h2 = Recorder.begin_read rec_ ~proc:rproc ~now:2.0 in
  Recorder.finish_read rec_ h2 ~now:3.0 ~result:1;
  check bool "hook fed both ops" true (Online.ops_seen t = 2);
  check bool "atomic" true (Online.finalize t = Ok ());
  (* And the recorded history agrees. *)
  check bool "batch agrees" true (Atomicity.is_atomic (Recorder.snapshot rec_))

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest
      [ equiv_no_gc; equiv_gc; witness_kinds_no_gc; three_way; sink_agrees ]
  in
  Alcotest.run "online"
    [
      ( "stream",
        [
          Alcotest.test_case "atomic stream" `Quick test_stream_atomic;
          Alcotest.test_case "stale read (window)" `Quick
            test_stream_stale_before_gc;
          Alcotest.test_case "stale read (GC boundary)" `Quick
            test_stream_stale_after_gc;
          Alcotest.test_case "parked read resolves" `Quick
            test_stream_parked_read_resolves;
          Alcotest.test_case "future read via park" `Quick
            test_stream_future_read_via_park;
          Alcotest.test_case "unwritten at finalize" `Quick
            test_stream_unwritten_at_finalize;
          Alcotest.test_case "window bounded" `Quick test_window_stays_bounded;
          Alcotest.test_case "keyed verdicts" `Quick
            test_keyed_isolated_verdicts;
          Alcotest.test_case "recorder hook" `Quick
            test_recorder_hook_feeds_online;
        ] );
      ( "quiet-key",
        [
          Alcotest.test_case "fresh return" `Quick test_quiet_key_fresh;
          Alcotest.test_case "stale return" `Quick test_quiet_key_stale;
          Alcotest.test_case "unwritten return" `Quick test_quiet_key_unwritten;
          Alcotest.test_case "retired conflict" `Quick
            test_quiet_key_retired_conflict;
          Alcotest.test_case "10k keys, window by flight" `Quick
            test_keyed_window_bounded_by_flight;
        ] );
      ("equivalence", qsuite);
    ]
