(* The process's one event loop.  One thread, alone on its domain,
   owns one poller, one wake pipe and every descriptor the transport
   serves or dials; the poller's table of handlers and the ticker list
   are touched by that thread only, so they need no lock.  The wake
   pipe is one more watched descriptor, whose handler drains it.  Other
   threads reach the loop through the inbox and the [armed] flag, both
   [Atomic]. *)

type ticker = { step : float -> unit; deadline : unit -> float }

type t = {
  poller : Netio.Poller.t;
  wake_w : Unix.file_descr;
  (* Set while the loop is about to sleep or asleep: the first
     submission to clear it writes the wake pipe, once per sleep. *)
  armed : bool Atomic.t;
  mutable tickers : ticker list;
  (* Submitted work, newest first: a CAS-pushed stack the loop takes
     whole, so an iteration with nothing submitted allocates nothing. *)
  inbox : (unit -> unit) list Atomic.t;
}

(* The loop's thread id, once it runs; -1 before. *)
let loop_thread = Atomic.make (-1)

let on_loop () = Atomic.get loop_thread = Thread.id (Thread.self ())

(* The longest the loop sleeps with nothing due: the bound on how late
   a submission runs if a wake-up byte were ever lost. *)
let idle = 0.2

let drain_inbox l =
  match Atomic.get l.inbox with
  | [] -> ()
  | _ :: _ -> List.iter (fun f -> f ()) (List.rev (Atomic.exchange l.inbox []))

let rec step_all t_now = function
  | [] -> ()
  | tk :: rest ->
    tk.step t_now;
    step_all t_now rest

let rec earliest m = function
  | [] -> m
  | tk :: rest -> earliest (Float.min m (tk.deadline ())) rest

let run l =
  Atomic.set loop_thread (Thread.id (Thread.self ()));
  while true do
    Atomic.set l.armed false;
    drain_inbox l;
    let t_now = Clock.now () in
    step_all t_now l.tickers;
    let target = earliest (t_now +. idle) l.tickers in
    Atomic.set l.armed true;
    (* A submission pushed since the drain above saw [armed] unset and
       wrote no wake-up: this second peek, after the store, catches it,
       and the wait only polls. *)
    let timeout =
      match Atomic.get l.inbox with
      | [] -> target -. Clock.now ()
      | _ :: _ -> 0.0
    in
    Netio.Poller.wait l.poller ~timeout
  done

(* Created, and its domain spawned, by the first caller. *)
let the : t option Atomic.t = Atomic.make None

let init_lock = Mutex.create ()

let get () =
  match Atomic.get the with
  | Some l -> l
  | None ->
    Mutex.protect init_lock (fun () ->
        match Atomic.get the with
        | Some l -> l
        | None ->
          Netio.ignore_sigpipe ();
          let wake_r, wake_w = Unix.pipe ~cloexec:true () in
          Netio.set_nonblock wake_r;
          Netio.set_nonblock wake_w;
          let poller = Netio.Poller.create () in
          Netio.Poller.add poller wake_r ~want_write:false
            (fun ~readable:_ ~writable:_ -> Netio.drain_wake wake_r);
          let l =
            {
              poller;
              wake_w;
              armed = Atomic.make false;
              tickers = [];
              inbox = Atomic.make [];
            }
          in
          Atomic.set the (Some l);
          (* A domain's uncaught exception is kept for a join that never
             comes: say so before the loop dies with it. *)
          ignore
            (Domain.spawn (fun () ->
                 try run l
                 with e ->
                   Printf.eprintf "Transport.Loop: event loop died: %s\n%!"
                     (Printexc.to_string e);
                   raise e));
          l)

let submit f =
  let l = get () in
  let rec push () =
    let jobs = Atomic.get l.inbox in
    if not (Atomic.compare_and_set l.inbox jobs (f :: jobs)) then push ()
  in
  push ();
  (* The push happens before this read, and the loop sets [armed]
     before it peeks at the inbox again, so either that peek sees the
     push or this read sees [armed] and wakes it. *)
  if Atomic.get l.armed && Atomic.compare_and_set l.armed true false then
    Netio.notify l.wake_w

type 'a handoff = {
  ready : Semaphore.Binary.t;
  outcome : ('a, exn * Printexc.raw_backtrace) result option Atomic.t;
}

let handoff () =
  { ready = Semaphore.Binary.make false; outcome = Atomic.make None }

let give h r =
  Atomic.set h.outcome (Some r);
  Semaphore.Binary.release h.ready

let await ~who h f =
  if on_loop () then
    invalid_arg
      (who
     ^ ": called on the event loop's thread (from a continuation?), which \
        would wait for itself");
  submit f;
  Semaphore.Binary.acquire h.ready;
  match Atomic.exchange h.outcome None with
  | Some (Ok v) -> v
  | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
  | None -> assert false (* released only by [give] *)

let call ~who f =
  let h = handoff () in
  await ~who h (fun () ->
      give h (try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ())))

let watch fd ~want_write h = Netio.Poller.add (get ()).poller fd ~want_write h

let set fd ~read ~write = Netio.Poller.set (get ()).poller fd ~read ~write

let unwatch fd = Netio.Poller.remove (get ()).poller fd

let add_ticker tk =
  let l = get () in
  l.tickers <- tk :: l.tickers

let remove_ticker tk =
  let l = get () in
  l.tickers <- List.filter (fun x -> x != tk) l.tickers
