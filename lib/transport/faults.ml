type dir = To_server | From_server

type kind = Drop | Duplicate | Latency of { base : float; jitter : float }

(* A rule's server or client set, as a byte per node id below the
   largest one listed; [None] (from [[]]) is every node. *)
type members = Bytes.t option

let check_ids what ids =
  if List.exists (fun x -> x < 0) ids then
    invalid_arg (Printf.sprintf "Faults.%s: node ids must be >= 0" what)

let members what = function
  | [] -> None
  | ids ->
    check_ids what ids;
    let b = Bytes.make (1 + List.fold_left max 0 ids) '\000' in
    List.iter (fun x -> Bytes.set b x '\001') ids;
    Some b

let mem m x =
  match m with
  | None -> true
  | Some b -> x >= 0 && x < Bytes.length b && Bytes.get b x <> '\000'

type frame_rule = {
  kind : kind;
  prob : float;
  dir : dir option; (* None = both directions *)
  servers : members;
  clients : members;
  from_s : float;
  until_s : float;
}

type rule =
  | Frame of frame_rule
  | Partition of {
      group : int array; (* node id -> its first group, or -1 *)
      from_s : float;
      until_s : float;
    }

type t = {
  seed : int;
  rules : rule list;
  timed : bool; (* some rule has a window: consult the clock *)
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
  Frame
    {
      kind;
      prob;
      dir;
      servers = members "rule" servers;
      clients = members "rule" clients;
      from_s = from_;
      until_s = until;
    }

let cut ?dir ?servers ?clients () =
  rule ?dir ?servers ?clients ~prob:1.0 Drop

let partition ?(from_ = 0.0) ?(until = infinity) groups =
  let nodes = List.concat groups in
  check_ids "partition" nodes;
  let group = Array.make (1 + List.fold_left max (-1) nodes) (-1) in
  List.iteri
    (fun g -> List.iter (fun x -> if group.(x) < 0 then group.(x) <- g))
    groups;
  Partition { group; from_s = from_; until_s = until }

(* Whether a window is anything but "always": seconds since [arm] are
   never negative. *)
let windowed from_s until_s = not (from_s <= 0.0 && until_s = infinity)

let create ?(seed = 0) rules =
  let timed =
    List.exists
      (function
        | Frame { from_s; until_s; _ } | Partition { from_s; until_s; _ } ->
          windowed from_s until_s)
      rules
  in
  { seed; rules; timed; t0 = -1.0; lock = Mutex.create () }

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

let frame_matches r ~dir ~server ~client ~e =
  (match r.dir with None -> true | Some d -> d = dir)
  && mem r.servers server
  && mem r.clients client
  && e >= r.from_s && e < r.until_s

let group_of group x =
  if x >= 0 && x < Array.length group then group.(x) else -1

let partitioned group ~server ~client =
  let a = group_of group server and b = group_of group client in
  a >= 0 && b >= 0 && a <> b

let deliveries t ~dir ~server ~client ~rt ~salt =
  (* With no windowed rule every window holds at any [e >= 0], so the
     clock and its lock are skipped. *)
  let e = if t.timed then elapsed t else 0.0 in
  let blocked =
    List.exists
      (function
        | Partition { group; from_s; until_s } ->
          e >= from_s && e < until_s
          && partitioned group ~server ~client
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
