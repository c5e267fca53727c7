open Histories
open Registers

type spec = {
  writers : int;
  readers : int;
  writes_per_writer : int;
  reads_per_reader : int;
  write_think : float;
  read_think : float;
}

let default_spec =
  {
    writers = 2;
    readers = 2;
    writes_per_writer = 20;
    reads_per_reader = 40;
    write_think = 0.0;
    read_think = 0.0;
  }

type result = {
  history : History.t;
  duration : float;
  write_rounds : float;
  read_rounds : float;
  late : int;
  retries : int;
  unavailable : int;
  killed : int list;
  online : Check_sink.report option;
}

(* One client's private operation log.  Clients record invocations and
   responses into their own log with no shared lock — the clock reads
   and list pushes happen entirely in the owning thread — and the
   logs merge into one History.t only after every thread has joined. *)
type lop = {
  l_kind : Op.kind;
  l_inv : float;
  mutable l_resp : float option;
  mutable l_result : int option;
  mutable l_rounds : int; (* completed round trips consumed by this op *)
}

let merge_history logs =
  let ops =
    List.concat_map
      (fun (proc, lops) ->
        List.rev_map
          (fun l ->
            {
              Op.id = 0;
              proc;
              kind = l.l_kind;
              inv = l.l_inv;
              resp = l.l_resp;
              result = l.l_result;
            })
          lops)
      logs
  in
  (* Ids must be unique; assigning them along invocation order keeps the
     numbering readable (History.of_ops re-sorts by (inv, id) anyway). *)
  let ops =
    List.sort
      (fun (a : Op.t) b -> compare (a.Op.inv, a.Op.proc) (b.Op.inv, b.Op.proc))
      ops
  in
  History.of_ops (List.mapi (fun id (o : Op.t) -> { o with Op.id }) ops)

(* Mean round trips per *completed* operation.  Rounds spent inside an
   operation that later failed with [Unavailable] (e.g. the Query round
   of a two-round write whose Update round found no quorum) are excluded
   from both numerator and denominator — a partially-failed op must not
   skew the Table-1 rounds column. *)
let mean_rounds logs =
  let rounds = ref 0 and ops = ref 0 in
  List.iter
    (fun (_, lops) ->
      List.iter
        (fun l ->
          if l.l_resp <> None then begin
            rounds := !rounds + l.l_rounds;
            incr ops
          end)
        lops)
    logs;
  if !ops = 0 then 0.0 else float_of_int !rounds /. float_of_int !ops

let op_of proc l =
  {
    Op.id = 0;
    proc;
    kind = l.l_kind;
    inv = l.l_inv;
    resp = l.l_resp;
    result = l.l_result;
  }

let run ?(kill_at = []) ?(restart_at = []) ?faults ?rt_timeout
    ?max_rt_retries ?(live_check = false) ?on_violation ~register ~cluster
    spec =
  (match Registry.max_writers register with
  | Some m when spec.writers > m ->
    invalid_arg
      (Printf.sprintf "Session.run: %s accepts at most %d writer(s)"
         (Registry.name register) m)
  | _ -> ());
  let algo = Registry.client_algo register in
  let cl =
    Cluster.clients ?rt_timeout ?max_rt_retries ?faults cluster
      ~writers:spec.writers ~readers:spec.readers
  in
  (* Align the fault plan's rule windows with the session clock. *)
  Option.iter Faults.arm faults;
  let t0 = Clock.now () in
  let now () = Clock.now () -. t0 in
  let sink =
    if live_check then Some (Check_sink.create ?on_violation ~now ())
    else None
  in
  let port_for _ = Option.map Check_sink.port sink in
  let wports = Array.init spec.writers port_for in
  let rports = Array.init spec.readers port_for in
  (* Per-thread result slots — no cross-thread mutation, no locks. *)
  let writer_logs = Array.make spec.writers [] in
  let reader_logs = Array.make spec.readers [] in
  let writer_starved = Array.make spec.writers false in
  let reader_starved = Array.make spec.readers false in
  (* Distinct written values without a shared counter: writer [i] owns
     the contiguous block starting at [initial_value + 1 + i * block]. *)
  let value_base = History.initial_value + 1 in
  (* One OS thread per client, mirroring one plan per client in the
     simulator.  Operations run lock-free through the endpoints; each
     thread logs privately and the logs merge after the joins. *)
  let writer_body i () =
    let ep = cl.Cluster.writer_eps.(i) in
    let write = algo.Client_core.new_writer cl.Cluster.ctx ~writer:i in
    let port = wports.(i) in
    let invoke () =
      match port with Some p -> Check_sink.invoked p | None -> now ()
    in
    let publish l =
      match port with
      | Some p ->
        Check_sink.completed p ~key:Cluster.register_key
          (op_of (Op.Writer i) l)
      | None -> ()
    in
    let log = ref [] in
    (try
       for n = 0 to spec.writes_per_writer - 1 do
         let value = value_base + (i * spec.writes_per_writer) + n in
         let r0 = Mux.rounds_completed ep in
         let l =
           {
             l_kind = Op.Write value;
             l_inv = invoke ();
             l_resp = None;
             l_result = None;
             l_rounds = 0;
           }
         in
         log := l :: !log;
         write ~payload:value ~k:(fun _tag ->
             l.l_resp <- Some (now ());
             l.l_rounds <- Mux.rounds_completed ep - r0);
         publish l;
         if spec.write_think > 0.0 then Thread.delay spec.write_think
       done
     with Endpoint.Unavailable _ ->
       writer_starved.(i) <- true;
       (* The aborted write stays visible to the checker as pending —
          it may have taken effect at a quorum minority. *)
       (match !log with
       | l :: _ when l.l_resp = None -> publish l
       | _ -> ()));
    writer_logs.(i) <- !log;
    Mux.release ep
  in
  let reader_body j () =
    let ep = cl.Cluster.reader_eps.(j) in
    let read = algo.Client_core.new_reader cl.Cluster.ctx ~reader:j in
    let port = rports.(j) in
    let invoke () =
      match port with Some p -> Check_sink.invoked p | None -> now ()
    in
    let publish l =
      match port with
      | Some p ->
        Check_sink.completed p ~key:Cluster.register_key
          (op_of (Op.Reader j) l)
      | None -> ()
    in
    let log = ref [] in
    (try
       for _ = 1 to spec.reads_per_reader do
         let r0 = Mux.rounds_completed ep in
         let l =
           {
             l_kind = Op.Read;
             l_inv = invoke ();
             l_resp = None;
             l_result = None;
             l_rounds = 0;
           }
         in
         log := l :: !log;
         read ~k:(fun value _tag ->
             l.l_resp <- Some (now ());
             l.l_result <- Some value;
             l.l_rounds <- Mux.rounds_completed ep - r0);
         publish l;
         if spec.read_think > 0.0 then Thread.delay spec.read_think
       done
     with Endpoint.Unavailable _ ->
       reader_starved.(j) <- true;
       (match !log with
       | l :: _ when l.l_resp = None -> publish l
       | _ -> ()));
    reader_logs.(j) <- !log;
    Mux.release ep
  in
  (* One scheduler thread replays the merged crash/restart timeline in
     order — a kill and its restart stay correctly sequenced even when
     their times collide. *)
  let events =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (List.map (fun (at, idx) -> (at, `Kill idx)) kill_at
      @ List.map (fun (at, idx, mode) -> (at, `Restart (idx, mode)))
          restart_at)
  in
  let killer =
    match events with
    | [] -> None
    | events ->
      Some
        (Thread.create
           (fun () ->
             List.iter
               (fun (at, ev) ->
                 let wait = at -. now () in
                 if wait > 0.0 then Thread.delay wait;
                 match ev with
                 | `Kill idx -> Cluster.kill cluster idx
                 | `Restart (idx, mode) -> Cluster.restart ~mode cluster idx)
               events)
           ())
  in
  Option.iter Check_sink.start sink;
  let threads =
    List.init spec.writers (fun i -> Thread.create (writer_body i) ())
    @ List.init spec.readers (fun j -> Thread.create (reader_body j) ())
  in
  List.iter Thread.join threads;
  (match killer with Some th -> Thread.join th | None -> ());
  let duration = now () in
  let online = Option.map Check_sink.stop sink in
  let all_eps = Array.append cl.Cluster.writer_eps cl.Cluster.reader_eps in
  let late =
    Array.fold_left (fun acc ep -> acc + Mux.late_replies ep) 0 all_eps
  in
  let retries =
    Array.fold_left (fun acc ep -> acc + Mux.retries ep) 0 all_eps
  in
  Cluster.close_clients cl;
  let wlogs =
    List.init spec.writers (fun i -> (Op.Writer i, writer_logs.(i)))
  in
  let rlogs =
    List.init spec.readers (fun j -> (Op.Reader j, reader_logs.(j)))
  in
  let unavailable =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0
      (Array.append writer_starved reader_starved)
  in
  {
    history = merge_history (wlogs @ rlogs);
    duration;
    write_rounds = mean_rounds wlogs;
    read_rounds = mean_rounds rlogs;
    late;
    retries;
    unavailable;
    killed =
      List.filter
        (fun i -> not (List.mem i (Cluster.running cluster)))
        (List.init (Cluster.s cluster) Fun.id);
    online;
  }
