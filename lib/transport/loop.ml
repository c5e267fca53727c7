(* The process's one event loop.  One thread, alone on its domain,
   owns one poller, one wake pipe and every descriptor the transport
   serves or dials; the handler table and the ticker list are touched
   by that thread only, so they need no lock.  Other threads reach it
   through the inbox and the [armed] deadline, both [Atomic]. *)

type ticker = { step : float -> unit; deadline : unit -> float }

type t = {
  poller : Netio.Poller.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  (* The deadline the loop is asleep until, [neg_infinity] while it is
     awake: a thread that staged work due before it writes the wake
     pipe, so the loop re-arms instead of oversleeping. *)
  armed : float Atomic.t;
  handlers : (int, readable:bool -> writable:bool -> unit) Hashtbl.t;
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

let dispatch l fd ~readable ~writable =
  if fd == l.wake_r then Netio.drain_wake l.wake_r
  else
    match Hashtbl.find l.handlers (Netio.fd_int fd) with
    | h -> h ~readable ~writable
    | exception Not_found -> () (* unwatched earlier in this dispatch round *)

let run l =
  Atomic.set loop_thread (Thread.id (Thread.self ()));
  let dispatch = dispatch l in
  while true do
    Atomic.set l.armed neg_infinity;
    drain_inbox l;
    let t_now = Clock.now () in
    step_all t_now l.tickers;
    let target = earliest (t_now +. idle) l.tickers in
    Atomic.set l.armed target;
    (* Work staged since the pass above saw [neg_infinity] and did not
       wake the loop: this second peek, after the store, catches it. *)
    let target = earliest target l.tickers in
    ignore
      (Netio.Poller.wait l.poller ~timeout:(target -. Clock.now ()) dispatch)
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
          Netio.Poller.add poller wake_r ~want_write:false;
          let l =
            {
              poller;
              wake_r;
              wake_w;
              armed = Atomic.make neg_infinity;
              handlers = Hashtbl.create 64;
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
  Netio.notify l.wake_w

let call ~who f =
  if on_loop () then
    invalid_arg
      (who
     ^ ": called on the event loop's thread (from a continuation?), which \
        would wait for itself");
  let result = ref (Ok ()) and ack = Semaphore.Binary.make false in
  submit (fun () ->
      (result :=
         match f () with
         | () -> Ok ()
         | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      Semaphore.Binary.release ack);
  Semaphore.Binary.acquire ack;
  match !result with
  | Ok () -> ()
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let wake_before due =
  let l = get () in
  if due < Atomic.get l.armed then Netio.notify l.wake_w

let watch fd ~want_write h =
  let l = get () in
  Hashtbl.replace l.handlers (Netio.fd_int fd) h;
  Netio.Poller.add l.poller fd ~want_write

let set fd ~read ~write = Netio.Poller.set (get ()).poller fd ~read ~write

let unwatch fd =
  let l = get () in
  Hashtbl.remove l.handlers (Netio.fd_int fd);
  Netio.Poller.remove l.poller fd

let add_ticker tk =
  let l = get () in
  l.tickers <- tk :: l.tickers

let remove_ticker tk =
  let l = get () in
  l.tickers <- List.filter (fun x -> x != tk) l.tickers
