open Histories

(* Contention-free bridge between client threads and one checker
   thread.  Each client owns a port: completions CAS-push onto the
   port's private stack, and a single in-flight marker publishes the
   invocation time of the operation currently executing.  The checker
   thread derives the GC watermark from the markers *before* draining
   the stacks, so the Online feed contract (ops fed after
   [advance ~watermark:w] invoke at or after [w]) holds by
   construction: a completion is pushed before its marker clears, so
   either the marker capped the watermark or the push is already
   visible to the drain that follows the marker read. *)

type entry = { e_key : string; e_op : Op.t }

type port = {
  queue : entry list Atomic.t;
  inflight : float Atomic.t; (* inv of the op in flight; infinity when idle *)
  base_id : int; (* ids handed out: base_id + n * id_stride *)
  mutable next : int;
  now : unit -> float;
}

(* Per-port id block, disjoint across ports without coordination. *)
let id_stride = 0x4000_0000

type report = {
  checked : int;
  keys : int;
  peak_window : int;
  batches : int;
  busy : float; (* seconds the checker thread spent feeding/advancing *)
  checker_ops_per_sec : float;
  violations : (string * Checker.Witness.t) list;
  verdicts : (string * (unit, Checker.Witness.t) result) list;
}

type t = {
  keyed : Checker.Online.Keyed.t;
  now_ : unit -> float;
  mutable ports : port list;
  mutable nports : int;
  stop_flag : bool Atomic.t;
  mutable thread : Thread.t option;
  mutable batches : int;
  mutable busy : float;
}

(* The checker thread's sleep between drains: short enough that the
   window stays tight under continuous load. *)
let interval = 0.001

let create ?on_violation ~now () =
  {
    keyed = Checker.Online.Keyed.create ?on_violation ();
    now_ = now;
    ports = [];
    nports = 0;
    stop_flag = Atomic.make false;
    thread = None;
    batches = 0;
    busy = 0.0;
  }

let port t =
  if t.thread <> None then
    invalid_arg "Check_sink.port: ports must be created before start";
  let p =
    {
      queue = Atomic.make [];
      inflight = Atomic.make infinity;
      base_id = t.nports * id_stride;
      next = 0;
      now = t.now_;
    }
  in
  t.nports <- t.nports + 1;
  t.ports <- p :: t.ports;
  p

(* Publish the marker, then timestamp the invocation: the returned
   time is never below the published marker, so the watermark can
   never overtake an operation that has not been pushed yet. *)
let invoked p =
  Atomic.set p.inflight (p.now ());
  p.now ()

let rec push p e =
  let old = Atomic.get p.queue in
  if not (Atomic.compare_and_set p.queue old (e :: old)) then push p e

let completed p ~key op =
  let id = p.base_id + p.next in
  p.next <- p.next + 1;
  push p { e_key = key; e_op = { op with Op.id } };
  Atomic.set p.inflight infinity

let drain_once t =
  let cap = t.now_ () in
  let wm =
    List.fold_left
      (fun acc p -> Float.min acc (Atomic.get p.inflight))
      cap t.ports
  in
  let any = ref false in
  List.iter
    (fun p ->
      match Atomic.exchange p.queue [] with
      | [] -> ()
      | batch ->
        any := true;
        (* The stack drains newest-first; reverse back to the port's
           program order. *)
        List.iter
          (fun e -> Checker.Online.Keyed.feed t.keyed ~key:e.e_key e.e_op)
          (List.rev batch))
    t.ports;
  Checker.Online.Keyed.advance t.keyed ~watermark:wm;
  if !any then begin
    t.batches <- t.batches + 1;
    t.busy <- t.busy +. (t.now_ () -. cap)
  end

let start t =
  if t.thread <> None then invalid_arg "Check_sink.start: already started";
  t.thread <-
    Some
      (Thread.create
         (fun () ->
           while not (Atomic.get t.stop_flag) do
             drain_once t;
             Thread.delay interval
           done)
         ())

let stop t =
  (match t.thread with
  | Some th ->
    Atomic.set t.stop_flag true;
    Thread.join th;
    t.thread <- None
  | None -> ());
  (* Final drain after every producer has joined: markers are all idle
     now, so this also settles the watermark at [now]. *)
  drain_once t;
  let t1 = t.now_ () in
  let verdicts = Checker.Online.Keyed.finalize t.keyed in
  t.busy <- t.busy +. (t.now_ () -. t1);
  let checked = Checker.Online.Keyed.ops_seen t.keyed in
  {
    checked;
    keys = Checker.Online.Keyed.keys t.keyed;
    peak_window = Checker.Online.Keyed.peak_resident t.keyed;
    batches = t.batches;
    busy = t.busy;
    checker_ops_per_sec =
      (if t.busy > 0.0 then float_of_int checked /. t.busy else 0.0);
    violations = Checker.Online.Keyed.violations t.keyed;
    verdicts;
  }

let atomic r = r.violations = [] && List.for_all (fun (_, v) -> v = Ok ()) r.verdicts
