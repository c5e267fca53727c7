(* The transport's single raw-I/O choke point (see lib/analysis/RULES.md,
   RAW-IO): every syscall that moves bytes or waits for readiness lives
   here, wrapped with one EINTR policy — blocking variants retry, the
   non-blocking variants retry EINTR but surface EAGAIN/EWOULDBLOCK as
   [None] so the event loop can park the descriptor until the poller says
   otherwise. *)

(* ------------------------------------------------------------------ *)
(* Syscall counters                                                    *)
(* ------------------------------------------------------------------ *)

(* One increment per syscall attempt (EINTR retries and EAGAIN results
   included), process-wide.  Always on: an [Atomic.incr] is the whole
   cost, and a count is the only way to say which syscalls an op pays
   for. *)
let n_writes = Atomic.make 0
let n_writes_nb = Atomic.make 0
let n_reads = Atomic.make 0
let n_waits = Atomic.make 0
let n_notifies = Atomic.make 0

type counts = {
  writes : int;
  writes_nb : int;
  reads : int;
  waits : int;
  notifies : int;
}

let counts () =
  {
    writes = Atomic.get n_writes;
    writes_nb = Atomic.get n_writes_nb;
    reads = Atomic.get n_reads;
    waits = Atomic.get n_waits;
    notifies = Atomic.get n_notifies;
  }

let rec write_all fd buf pos len =
  if len > 0 then begin
    Atomic.incr n_writes;
    match Unix.write fd buf pos len with
    | n -> write_all fd buf (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf pos len
  end

let rec read fd buf pos len =
  Atomic.incr n_reads;
  match Unix.read fd buf pos len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read fd buf pos len

let ignore_sigpipe =
  let once =
    lazy
      (if Sys.os_type = "Unix" then
         try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())
  in
  fun () -> Lazy.force once

(* ------------------------------------------------------------------ *)
(* Non-blocking variants                                               *)
(* ------------------------------------------------------------------ *)

let set_nonblock fd = Unix.set_nonblock fd

let rec read_nb fd buf pos len =
  Atomic.incr n_reads;
  match Unix.read fd buf pos len with
  | n -> Some n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_nb fd buf pos len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> None

let rec write_nb fd buf pos len =
  Atomic.incr n_writes_nb;
  match Unix.write fd buf pos len with
  | n -> Some n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_nb fd buf pos len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> None

let rec accept_nb fd =
  match Unix.accept fd with
  | cfd, _ -> Some cfd
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
    (* A connection that died in the backlog is not "no connections":
       another may be waiting right behind it. *)
    accept_nb fd
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> None

(* ------------------------------------------------------------------ *)
(* Wakeup pipes                                                        *)
(* ------------------------------------------------------------------ *)

let wake_byte = Bytes.make 1 '!'

let notify fd =
  (* One byte is one wakeup; a full pipe already guarantees one, so
     EAGAIN is success here.  A torn-down peer (EPIPE/EBADF during
     shutdown races) is equally fine: there is nobody left to wake. *)
  Atomic.incr n_notifies;
  match Unix.write fd wake_byte 0 1 with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> (
    Atomic.incr n_notifies;
    match Unix.write fd wake_byte 0 1 with
    | _ -> ()
    | exception Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let drain_wake =
  let sink = Bytes.create 64 in
  fun fd ->
    let rec go () =
      match read_nb fd sink 0 (Bytes.length sink) with
      | Some n when n > 0 -> go ()
      | Some _ | None -> ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()

(* ------------------------------------------------------------------ *)
(* Readiness waits                                                     *)
(* ------------------------------------------------------------------ *)

(* A file descriptor is the int; the poller keys its table by it. *)
external fd_int : Unix.file_descr -> int = "%identity"
external fd_of_int : int -> Unix.file_descr = "%identity"

(* Event/interest encoding shared with poll_stubs.c:
   (fd lsl 3) lor bits, bits: 1 readable, 2 writable, 4 error. *)
let bit_read = 1
let bit_write = 2
let bit_err = 4

external epoll_create : unit -> int = "mwreg_epoll_create"
external epoll_ctl : int -> int -> int -> int -> unit = "mwreg_epoll_ctl"
external epoll_wait : int -> int -> int array -> int = "mwreg_epoll_wait"

(* epoll waits take nanoseconds (poll_stubs.c rounds up to milliseconds
   itself where the kernel lacks epoll_pwait2), clamped at a day:
   [int_of_float] of a huge float is unspecified. *)
let to_ns timeout =
  if timeout <= 0.0 then 0
  else int_of_float (Float.ceil (Float.min timeout 86400.0 *. 1e9))

module Poller = struct
  type watched = {
    mutable bits : int; (* interest bits *)
    handler : readable:bool -> writable:bool -> unit;
  }

  type t = {
    ep : int; (* the epoll instance *)
    watched : (int, watched) Hashtbl.t; (* fd → interest and handler *)
    mutable evbuf : int array; (* epoll event staging, reused *)
  }

  let create () =
    {
      ep = epoll_create ();
      watched = Hashtbl.create 64;
      evbuf = Array.make 256 0;
    }

  let add t fd ~want_write handler =
    let bits = if want_write then bit_read lor bit_write else bit_read in
    let k = fd_int fd in
    Hashtbl.replace t.watched k { bits; handler };
    epoll_ctl t.ep 0 k bits

  let set t fd ~read ~write =
    let k = fd_int fd in
    match Hashtbl.find t.watched k with
    | w ->
      let bits =
        (if read then bit_read else 0) lor if write then bit_write else 0
      in
      if bits <> w.bits then begin
        w.bits <- bits;
        epoll_ctl t.ep 1 k bits
      end
    | exception Not_found -> ()

  let remove t fd =
    let k = fd_int fd in
    if Hashtbl.mem t.watched k then begin
      Hashtbl.remove t.watched k;
      epoll_ctl t.ep 2 k 0
    end

  let wait t ~timeout =
    Atomic.incr n_waits;
    let want = max 64 (Hashtbl.length t.watched + 1) in
    if Array.length t.evbuf < want then t.evbuf <- Array.make want 0;
    let n = epoll_wait t.ep (to_ns timeout) t.evbuf in
    for i = 0 to n - 1 do
      let e = t.evbuf.(i) in
      let bits = e land 7 in
      if bits <> 0 then
        (* [find], not [find_opt]: no option allocated per event. *)
        match Hashtbl.find t.watched (e lsr 3) with
        | w ->
          w.handler
            ~readable:(bits land (bit_read lor bit_err) <> 0)
            ~writable:(bits land bit_write <> 0)
        | exception Not_found -> () (* removed earlier in this round *)
    done

  let close t =
    Hashtbl.reset t.watched;
    try Unix.close (fd_of_int t.ep) with Unix.Unix_error _ -> ()
end
