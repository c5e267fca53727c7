open Protocol
open Simulation

(* A route rule: [None] means "no opinion"; the first rule with an
   opinion wins, default [Network.Deliver]. *)
type rule = src:int -> dst:int -> now:float -> Network.action option

type t = { rules : rule list; crashes : (float * int) list }

let none = { rules = []; crashes = [] }

let of_rules rules = { rules; crashes = [] }

let compose ts =
  {
    rules = List.concat_map (fun t -> t.rules) ts;
    crashes = List.concat_map (fun t -> t.crashes) ts;
  }

let apply t ctl engine =
  if t.rules <> [] then
    ctl.Control.set_route
      (Some
         (fun ~src ~dst ~now ->
           let rec go = function
             | [] -> Network.Deliver
             | r :: rest -> (
               match r ~src ~dst ~now with Some a -> a | None -> go rest)
           in
           go t.rules));
  List.iter
    (fun (time, srv) ->
      Engine.schedule_at engine ~time (fun () -> ctl.Control.crash_server srv))
    t.crashes

let crash_at crashes = { rules = []; crashes }

let crash_random ~seed ~t ~at ~s =
  let rng = Rng.create ~seed in
  let all = Array.init s (fun i -> i) in
  Rng.shuffle rng all;
  crash_at (List.init t (fun i -> (at, all.(i))))

let hold_route ~src ~dst =
  of_rules
    [
      (fun ~src:s ~dst:d ~now:_ ->
        if s = src && d = dst then Some Network.Hold else None);
    ]

let delay_route ~delay ~src ~dst =
  of_rules
    [
      (fun ~src:s ~dst:d ~now:_ ->
        if s = src && d = dst then Some (Network.Delay delay) else None);
    ]

let random_skips ~seed ~topology ~t_budget ~window =
  of_rules
    [
      (fun ~src ~dst ~now ->
        (* Only shape client->server traffic; replies flow freely so a
           round-trip completes from the servers the request reached. *)
        if not (Topology.is_client topology src && Topology.is_server topology dst)
        then None
        else begin
          let epoch = int_of_float (now /. window) in
          (* Exactly the [t_budget] servers with the smallest pseudo-random
             rank are skipped by this client in this epoch, so no
             round-trip ever lacks its S − t quorum. *)
          let s = topology.Topology.servers in
          let rank d = (Hashtbl.hash (seed, src, d, epoch), d) in
          let mine = rank dst in
          let smaller = ref 0 in
          for d = 0 to s - 1 do
            if d <> dst && rank d < mine then incr smaller
          done;
          if !smaller < t_budget then Some Network.Hold else None
        end);
    ]

let partition ~groups ~from_time ~until =
  of_rules
    [
      (fun ~src ~dst ~now ->
        if now >= from_time && now < until && groups src <> groups dst then
          Some (Network.Delay (until -. now))
        else None);
    ]

(* ------------------------------------------------------------------ *)
(* The Fig. 9 experiment                                                *)
(* ------------------------------------------------------------------ *)

(* Timing constants for unit latency: a round-trip started at time T has
   its requests arriving at T+1 and replies at T+2; the next round's
   requests leave at T+2. *)
let w0_start = 0.0
let w1_start = 10.0
let reader_gap = 10.0
let readers_start = 30.0

let last_reader_start topology =
  readers_start +. (float_of_int topology.Topology.readers *. reader_gap) +. 50.0

let certificate_starvation ~topology ~t () =
  let block dst = dst < t in
  let w0 = Topology.writer_node topology 0 in
  let w1 =
    if topology.Topology.writers > 1 then Some (Topology.writer_node topology 1)
    else None
  in
  let last_reader =
    Topology.reader_node topology (topology.Topology.readers - 1)
  in
  of_rules
    [
      (* Writer 0's second round (messages sent after its first round
         returned, i.e. after time w0_start + 2 - epsilon) reaches only
         the certificate block. *)
      (fun ~src ~dst ~now ->
        if src = w0 && Topology.is_server topology dst && now > w0_start +. 1.5
           && not (block dst)
        then Some Network.Hold
        else None);
      (* Writer 1 never gets past its first round. *)
      (fun ~src ~dst ~now ->
        match w1 with
        | Some w1 when src = w1 && Topology.is_server topology dst
                       && now > w1_start +. 1.5 ->
          Some Network.Hold
        | _ -> None);
      (* The last reader skips the certificate block. *)
      (fun ~src ~dst ~now:_ ->
        if src = last_reader && Topology.is_server topology dst && block dst then
          Some Network.Hold
        else None);
    ]

let threshold_plans ~topology =
  let open Runtime in
  let writers =
    write_plan ~writer:0 ~start_at:w0_start 1
    ::
    (if topology.Topology.writers > 1 then [ write_plan ~writer:1 ~start_at:w1_start 1 ]
     else [])
  in
  let readers =
    List.init topology.Topology.readers (fun i ->
        let start_at =
          if i = topology.Topology.readers - 1 then last_reader_start topology
          else readers_start +. (float_of_int i *. reader_gap)
        in
        read_plan ~reader:i ~start_at 1)
  in
  writers @ readers
