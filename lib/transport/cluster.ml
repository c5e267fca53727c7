open Registers

type t = {
  servers : Server.t option array; (* empty when attached to remote daemons *)
  keyspaces : Keyspace.t array; (* every register, one table per server *)
  sockaddrs : Unix.sockaddr array;
  s : int;
  tol : int;
  faults : Faults.t option;
}

(* Clusters started by this process: with the pid, unique names. *)
let started = Atomic.make 0

let start ?faults ~s ~tol () =
  if s < 2 then invalid_arg "Cluster.start: need at least 2 servers";
  if tol < 0 || tol >= s then invalid_arg "Cluster.start: need 0 <= tol < s";
  let n = Atomic.fetch_and_add started 1 in
  (* Linux's abstract namespace (the leading NUL): no file on disk, and
     the name is free again the moment its listen socket closes. *)
  let name i = Printf.sprintf "\000mwreg-%d-%d-%d" (Unix.getpid ()) n i in
  let sockaddrs = Array.init s (fun i -> Unix.ADDR_UNIX (name i)) in
  let keyspaces = Array.init s (fun _ -> Keyspace.create ()) in
  let servers =
    Array.init s (fun i ->
        Some
          (Server.start ~addr:sockaddrs.(i) ~id:i ~keyspace:keyspaces.(i) ()))
  in
  { servers; keyspaces; sockaddrs; s; tol; faults }

let connect ~addrs ~tol () =
  let s = Array.length addrs in
  if s < 2 then invalid_arg "Cluster.connect: need at least 2 servers";
  if tol < 0 || tol >= s then invalid_arg "Cluster.connect: need 0 <= tol < s";
  {
    servers = [||];
    keyspaces = [||];
    sockaddrs = addrs;
    s;
    tol;
    faults = None;
  }

let local t = Array.length t.servers > 0

let faults t = t.faults

let s t = t.s

let tolerance t = t.tol

let quorum t = t.s - t.tol

let addrs t = Array.copy t.sockaddrs

let pp_addr ppf = function
  | Unix.ADDR_INET (a, p) ->
    Format.fprintf ppf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX name ->
    Format.pp_print_string ppf
      (String.map (function '\000' -> '@' | c -> c) name)

let keyspace t i =
  if not (local t) then invalid_arg "Cluster.keyspace: remote cluster";
  t.keyspaces.(i)

(* A crash leaves the state the server held when it stopped: its
   keyspace, saved and reloaded all cold, is what a [`Recover] restart
   serves. *)
let kill t i =
  if not (local t) then invalid_arg "Cluster.kill: cannot kill remote servers";
  match t.servers.(i) with
  | None -> ()
  | Some sv ->
    t.servers.(i) <- None;
    Server.stop sv;
    t.keyspaces.(i) <- Keyspace.load (Server.snapshot sv)

type restart_mode = [ `Recover | `Fresh ]

(* Bring a killed server back under its original name.  [`Recover] serves
   the keyspace {!kill} rebuilt through the {!Keyspace.save}/
   {!Keyspace.load} state API — the restart is then indistinguishable
   from a very slow server, which the crash-stop proofs do cover.  [`Fresh] restarts with empty state:
   a model violation (acknowledged writes forgotten) that the atomicity
   checker must catch downstream. *)
let restart ?(mode = `Recover) t i =
  if not (local t) then
    invalid_arg "Cluster.restart: cannot restart remote servers";
  match t.servers.(i) with
  | Some _ -> ()
  | None ->
    let keyspace =
      match mode with
      | `Recover -> t.keyspaces.(i)
      | `Fresh -> Keyspace.create ()
    in
    t.keyspaces.(i) <- keyspace;
    t.servers.(i) <-
      Some (Server.start ~addr:t.sockaddrs.(i) ~id:i ~keyspace ())

let running t =
  if not (local t) then List.init t.s Fun.id
  else
    Array.to_list t.servers
    |> List.mapi (fun i sv -> (i, sv))
    |> List.filter_map (fun (i, sv) -> Option.map (fun _ -> i) sv)

(* No restart follows, so nothing is saved. *)
let shutdown t =
  Array.iteri
    (fun i sv ->
      t.servers.(i) <- None;
      Option.iter Server.stop sv)
    t.servers
