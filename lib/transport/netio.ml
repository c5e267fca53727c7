(* The transport's single raw-I/O choke point (see lib/analysis/RULES.md,
   RAW-IO): every syscall that moves bytes or waits for readiness lives
   here, wrapped with one EINTR policy — blocking variants retry, the
   non-blocking variants retry EINTR but surface EAGAIN/EWOULDBLOCK as
   [None] so a reactor can park the descriptor until the poller says
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

(* On Unix a file descriptor is the int; the poller and the reactor key
   their tables by it. *)
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
external raw_poll : int array -> int -> int -> int = "mwreg_poll"

(* epoll waits take nanoseconds (poll_stubs.c rounds up to milliseconds
   itself where the kernel lacks epoll_pwait2); poll(2) takes whole
   milliseconds, rounded up so a short timeout never becomes a busy
   loop.  Both clamp at a day: [int_of_float] of a huge float is
   unspecified. *)
let to_ns timeout =
  if timeout <= 0.0 then 0
  else int_of_float (Float.ceil (Float.min timeout 86400.0 *. 1e9))

let to_ms timeout =
  if timeout <= 0.0 then 0
  else int_of_float (Float.ceil (Float.min timeout 86400.0 *. 1000.0))

module Poller = struct
  type t = {
    ep : int; (* epoll instance, or -1 → poll over [interest] *)
    interest : (int, int) Hashtbl.t; (* fd → interest bits *)
    mutable evbuf : int array; (* epoll event staging, reused *)
    mutable pollbuf : int array; (* poll interest staging, reused *)
  }

  let create () =
    {
      ep = epoll_create ();
      interest = Hashtbl.create 64;
      evbuf = Array.make 256 0;
      pollbuf = [||];
    }

  let add t fd ~want_write =
    let bits = if want_write then bit_read lor bit_write else bit_read in
    let k = fd_int fd in
    Hashtbl.replace t.interest k bits;
    if t.ep >= 0 then epoll_ctl t.ep 0 k bits

  let set t fd ~read ~write =
    let k = fd_int fd in
    match Hashtbl.find_opt t.interest k with
    | None -> ()
    | Some bits ->
      let bits' =
        (if read then bit_read else 0) lor if write then bit_write else 0
      in
      if bits' <> bits then begin
        Hashtbl.replace t.interest k bits';
        if t.ep >= 0 then epoll_ctl t.ep 1 k bits'
      end

  let remove t fd =
    let k = fd_int fd in
    if Hashtbl.mem t.interest k then begin
      Hashtbl.remove t.interest k;
      if t.ep >= 0 then epoll_ctl t.ep 2 k 0
    end

  let dispatch f e =
    let bits = e land 7 in
    if bits <> 0 then
      f
        (fd_of_int (e lsr 3))
        ~readable:(bits land (bit_read lor bit_err) <> 0)
        ~writable:(bits land bit_write <> 0)

  let wait t ~timeout f =
    Atomic.incr n_waits;
    if t.ep >= 0 then begin
      let want = max 64 (Hashtbl.length t.interest + 1) in
      if Array.length t.evbuf < want then t.evbuf <- Array.make want 0;
      let n = epoll_wait t.ep (to_ns timeout) t.evbuf in
      for i = 0 to n - 1 do
        dispatch f t.evbuf.(i)
      done;
      n
    end
    else begin
      let ms = to_ms timeout in
      let m = Hashtbl.length t.interest in
      if m = 0 then begin
        if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.0);
        0
      end
      else begin
        if Array.length t.pollbuf < m then t.pollbuf <- Array.make m 0;
        let i = ref 0 in
        Hashtbl.iter
          (fun k bits ->
            t.pollbuf.(!i) <- (k lsl 3) lor bits;
            incr i)
          t.interest;
        let n = raw_poll t.pollbuf m ms in
        if n > 0 then
          for j = 0 to m - 1 do
            dispatch f t.pollbuf.(j)
          done;
        n
      end
    end

  let close t =
    Hashtbl.reset t.interest;
    if t.ep >= 0 then
      try Unix.close (fd_of_int t.ep) with Unix.Unix_error _ -> ()
end
