open Registers

type t = {
  servers : Server.t option array; (* empty when attached to remote daemons *)
  keyspaces : Keyspace.t array; (* every register, one table per server *)
  sockaddrs : Unix.sockaddr array;
  s : int;
  tol : int;
  shards : int; (* reactor event loops per server; restarts reuse it *)
  faults : Faults.t option;
}

let start ?faults ?(shards = 1) ~s ~tol () =
  if s < 2 then invalid_arg "Cluster.start: need at least 2 servers";
  if tol < 0 || tol >= s then invalid_arg "Cluster.start: need 0 <= tol < s";
  let keyspaces = Array.init s (fun _ -> Keyspace.create ()) in
  let servers =
    Array.init s (fun i ->
        Some (Server.start ~id:i ~shards ?faults ~keyspace:keyspaces.(i) ()))
  in
  let sockaddrs =
    Array.map
      (function
        | Some sv ->
          Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port sv)
        | None -> assert false)
      servers
  in
  { servers; keyspaces; sockaddrs; s; tol; shards; faults }

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
    shards = 1;
    faults = None;
  }

let local t = Array.length t.servers > 0

let s t = t.s

let tolerance t = t.tol

let quorum t = t.s - t.tol

let port t i =
  match t.sockaddrs.(i) with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Cluster.port: not an inet address"

let addrs t = Array.copy t.sockaddrs

let keyspace t i =
  if not (local t) then invalid_arg "Cluster.keyspace: remote cluster";
  t.keyspaces.(i)

let kill t i =
  if not (local t) then invalid_arg "Cluster.kill: cannot kill remote servers";
  match t.servers.(i) with
  | None -> ()
  | Some sv ->
    t.servers.(i) <- None;
    Server.stop sv

type restart_mode = [ `Recover | `Fresh ]

(* Bring a killed server back on its original port.  [`Recover] rebuilds
   its keyspace through the {!Keyspace.save}/{!Keyspace.load} state API —
   the restart is then indistinguishable from a very slow server, which
   the crash-stop proofs do cover.  [`Fresh] restarts with empty state:
   a model violation (acknowledged writes forgotten) that the atomicity
   checker must catch downstream.  The listen socket sets SO_REUSEADDR,
   but lingering TIME_WAIT pairs can still race the rebind, so EADDRINUSE
   is retried briefly. *)
let restart ?(mode = `Recover) t i =
  if not (local t) then
    invalid_arg "Cluster.restart: cannot restart remote servers";
  match t.servers.(i) with
  | Some _ -> ()
  | None ->
    let keyspace =
      match mode with
      | `Recover -> Keyspace.load (Keyspace.save t.keyspaces.(i))
      | `Fresh -> Keyspace.create ()
    in
    t.keyspaces.(i) <- keyspace;
    let port = port t i in
    let rec bind_retrying n =
      match
        Server.start ~port ~id:i ~shards:t.shards ?faults:t.faults ~keyspace ()
      with
      | sv -> sv
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when n > 0 ->
        Thread.delay 0.05;
        bind_retrying (n - 1)
    in
    t.servers.(i) <- Some (bind_retrying 40)

let running t =
  if not (local t) then List.init t.s Fun.id
  else
    Array.to_list t.servers
    |> List.mapi (fun i sv -> (i, sv))
    |> List.filter_map (fun (i, sv) -> Option.map (fun _ -> i) sv)

let shutdown t =
  if local t then Array.iteri (fun i _ -> kill t i) t.servers
