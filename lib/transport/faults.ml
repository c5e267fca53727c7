type dir = To_server | From_server

type kind = Drop | Duplicate | Latency of { base : float; jitter : float }

type frame_rule = {
  kind : kind;
  prob : float;
  dir : dir option; (* None = both directions *)
  servers : int list; (* [] = all *)
  clients : int list; (* [] = all *)
  from_s : float;
  until_s : float;
}

type rule =
  | Frame of frame_rule
  | Partition of { groups : int list list; from_s : float; until_s : float }

type t = {
  seed : int;
  rules : rule list;
  mutable t0 : float; (* negative until armed *)
  lock : Mutex.t;
}

let rule ?dir ?(servers = []) ?(clients = []) ?(from_ = 0.0) ?(until = infinity)
    ?(prob = 1.0) kind =
  if not (prob >= 0.0 && prob <= 1.0) then
    invalid_arg "Faults.rule: prob out of [0,1]";
  (match kind with
  | Latency { base; jitter } when not (base >= 0.0 && jitter >= 0.0 && base +. jitter > 0.0)
    -> invalid_arg "Faults.rule: latency must have base, jitter >= 0 and base + jitter > 0"
  | Drop | Duplicate | Latency _ -> ());
  Frame { kind; prob; dir; servers; clients; from_s = from_; until_s = until }

let cut ?dir ?servers ?clients ?from_ ?until () =
  rule ?dir ?servers ?clients ?from_ ?until ~prob:1.0 Drop

let partition ?(from_ = 0.0) ?(until = infinity) groups =
  Partition { groups; from_s = from_; until_s = until }

let create ?(seed = 0) rules = { seed; rules; t0 = -1.0; lock = Mutex.create () }

let arm t = Mutex.protect t.lock (fun () -> t.t0 <- Clock.now ())

let elapsed t =
  Mutex.protect t.lock (fun () ->
      if t.t0 < 0.0 then t.t0 <- Clock.now ();
      Clock.now () -. t.t0)

(* ------------------------------------------------------------------ *)
(* Deterministic per-frame randomness                                  *)
(*                                                                     *)
(* A splitmix-style integer mix over the frame's coordinates.  The     *)
(* same (seed, rule, dir, server, client, rt, salt) always yields the  *)
(* same decision, whatever the thread interleaving — rerunning a plan  *)
(* replays its faults.                                                 *)
(* ------------------------------------------------------------------ *)

let mix h k =
  let h = (h lxor k) * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x27220A95 in
  h lxor (h lsr 32)

(* Uniform in [0,1).  [j] separates independent draws for one frame
   (fire? and delay magnitude). *)
let draw t i ~dir ~server ~client ~rt ~salt j =
  let d = match dir with To_server -> 1 | From_server -> 2 in
  let h = mix (t.seed + 0x51ED) ((i * 8) + d) in
  let h = mix h server in
  let h = mix h client in
  let h = mix h rt in
  let h = mix h ((salt * 16) + j) in
  float_of_int (h land 0x3FFFFFFF) /. 1073741824.0

(* ------------------------------------------------------------------ *)
(* Rule evaluation                                                     *)
(* ------------------------------------------------------------------ *)

let mem_or_all l x = l = [] || List.mem x l

let frame_matches r ~dir ~server ~client ~e =
  (match r.dir with None -> true | Some d -> d = dir)
  && mem_or_all r.servers server
  && mem_or_all r.clients client
  && e >= r.from_s && e < r.until_s

let group_of groups x =
  let rec go i = function
    | [] -> None
    | g :: rest -> if List.mem x g then Some i else go (i + 1) rest
  in
  go 0 groups

let partitioned groups ~server ~client =
  match (group_of groups server, group_of groups client) with
  | Some a, Some b -> a <> b
  | _ -> false

let deliveries t ~dir ~server ~client ~rt ~salt =
  let e = elapsed t in
  let blocked =
    List.exists
      (function
        | Partition { groups; from_s; until_s } ->
          e >= from_s && e < until_s
          && partitioned groups ~server ~client
        | Frame _ -> false)
      t.rules
  in
  if blocked then []
  else begin
    let ds = ref [ 0.0 ] in
    List.iteri
      (fun i ru ->
        match ru with
        | Partition _ -> ()
        | Frame r ->
          if
            !ds <> []
            && frame_matches r ~dir ~server ~client ~e
            && (r.prob >= 1.0
               || draw t i ~dir ~server ~client ~rt ~salt 0 < r.prob)
          then
            (match r.kind with
            | Drop -> ds := []
            | Latency { base; jitter } ->
              (* A modelled link: the full base propagation delay plus a
                 uniform jitter in [0, jitter) — the same distribution
                 the simulator's geo latency models draw from, so one
                 profile means the same thing on both backends.  Each
                 copy draws its jitter independently (j = 1 + copy
                 index), so a duplicated frame's two copies land at
                 distinct deadlines — two paths through the network,
                 not one path taken twice. *)
              ds :=
                List.mapi
                  (fun ci after ->
                    let extra =
                      if jitter > 0.0 then
                        jitter *. draw t i ~dir ~server ~client ~rt ~salt (1 + ci)
                      else 0.0
                    in
                    after +. base +. extra)
                  !ds
            | Duplicate -> ds := !ds @ [ 0.0 ]))
      t.rules;
    !ds
  end
