open Histories

(* The atomicity core: the zone check of Gibbons & Korach over a stream
   of completed operations.  The batch checker is feed-all-then-finalize
   over this module; the live sinks feed it as operations complete.  The
   retirement and collapse rules are argued in online.mli. *)

let initial_write : Op.t =
  Op.write ~id:(-1)
    ~proc:(Op.Writer (-1))
    ~value:History.initial_value ~inv:neg_infinity ~resp:(Some neg_infinity)

let between ~write ~read (w' : Op.t) =
  w'.Op.id <> write.Op.id && Op.precedes write w' && Op.precedes w' read

let read_violation ~writes (r : Op.t) (w : Op.t) =
  if Op.precedes r w then Some (Witness.Future_read { read = r; write = w })
  else
    Seq.find (between ~write:w ~read:r) writes
    |> Option.map (fun newer -> Witness.Stale_read { read = r; write = w; newer })

let resp_of (o : Op.t) = match o.Op.resp with Some f -> f | None -> infinity

type cluster = {
  write : Op.t;
  value : int;
  mutable a : float; (* earliest response among its ops *)
  mutable b : float; (* latest invocation among its ops *)
  mutable last : float; (* latest response; infinity while the write is pending *)
  mutable ops : int; (* ops fed since the key last collapsed *)
}

type t = {
  mutable clusters : cluster list; (* resident, newest first *)
  mutable parked : Op.t list; (* reads with no resident write, newest first *)
  mutable retired_b : float; (* max b over retired clusters *)
  mutable retired : bool;
  mutable watermark : float;
  mutable verdict : Witness.t option;
  mutable seen : int;
  mutable peak : int;
}

let create () =
  {
    clusters =
      [
        {
          write = initial_write;
          value = History.initial_value;
          a = neg_infinity;
          b = neg_infinity;
          last = neg_infinity;
          ops = 0;
        };
      ];
    parked = [];
    retired_b = neg_infinity;
    retired = false;
    watermark = neg_infinity;
    verdict = None;
    seen = 0;
    peak = 0;
  }

let resident t =
  List.fold_left (fun n c -> n + c.ops) (List.length t.parked) t.clusters

let peak_resident t = t.peak

let ops_seen t = t.seen

let verdict t = match t.verdict with None -> Ok () | Some w -> Error w

(* Raising the watermark further cannot change this instance. *)
let settled t =
  t.verdict <> None
  || t.parked = [] && List.for_all (fun c -> c.last < t.watermark) t.clusters

let violate t reason =
  if t.verdict = None then
    t.verdict <- Some (Witness.make reason ~history_size:t.seen)

(* Read [r] joins cluster [c]: local conditions against the resident
   writes, then the zone update. *)
let join t c (r : Op.t) =
  Option.iter (violate t)
    (read_violation
       ~writes:(Seq.map (fun u -> u.write) (List.to_seq t.clusters))
       r c.write);
  c.a <- Float.min c.a (resp_of r);
  c.b <- Float.max c.b r.Op.inv;
  c.last <- Float.max c.last (resp_of r);
  c.ops <- c.ops + 1

(* [c] just changed: test it against the resident clusters, then against
   the retired ones through [retired_b]. *)
let test t c =
  match List.find_opt (fun u -> u != c && u.a < c.b && c.a < u.b) t.clusters with
  | Some u -> violate t (Witness.Ordering_cycle [ u.write; c.write ])
  | None ->
    if c.a < t.retired_b then
      violate t
        (Witness.Property
           {
             name = "retired-ordering-cycle";
             detail =
               "write's cluster conflicts with a cluster retired behind \
                the watermark";
             culprits = [ c.write ];
           })

let find t v = List.find_opt (fun c -> c.value = v) t.clusters

let feed t (op : Op.t) =
  t.seen <- t.seen + 1;
  if t.verdict = None then begin
    (match (op.Op.kind, op.Op.resp, op.Op.result) with
    | Op.Write v, _, _ ->
      if v = History.initial_value then
        invalid_arg "Online.feed: write of the initial value";
      if find t v <> None then
        invalid_arg "Online.feed: written values are not unique";
      let c =
        { write = op; value = v; a = resp_of op; b = op.Op.inv;
          last = resp_of op; ops = 1 }
      in
      t.clusters <- c :: t.clusters;
      (* Reads that completed while their write was still in flight. *)
      let mine, rest =
        List.partition (fun (r : Op.t) -> r.Op.result = Some v) t.parked
      in
      t.parked <- rest;
      List.iter (join t c) (List.rev mine);
      test t c
    | Op.Read, Some _, Some v -> (
      match find t v with
      | Some c ->
        join t c op;
        test t c
      | None -> t.parked <- op :: t.parked)
    | Op.Read, _, _ -> () (* pending reads impose no obligation *));
    t.peak <- Stdlib.max t.peak (resident t)
  end

let stale_or_unwritten (r : Op.t) v =
  Witness.Property
    {
      name = "stale-or-unwritten-read";
      detail =
        Printf.sprintf
          "read returned %d, a value never written, written in the read's \
           future, or superseded before the read was invoked"
          v;
      culprits = [ r ];
    }

(* The earliest (inv, id) parked read that responded before [deadline]. *)
let flag_parked t ~deadline reason =
  let expired = List.filter (fun r -> resp_of r < deadline) t.parked in
  match
    List.sort
      (fun (a : Op.t) (b : Op.t) -> compare (a.Op.inv, a.Op.id) (b.Op.inv, b.Op.id))
      expired
  with
  | ({ Op.result = Some v; _ } as r) :: _ -> violate t (reason r v)
  | _ -> ()

let advance t ~watermark =
  if watermark > t.watermark then t.watermark <- watermark;
  let w = t.watermark in
  if t.verdict = None then flag_parked t ~deadline:w stale_or_unwritten;
  if t.verdict = None then begin
    (* The latest-invoked settled write supersedes every cluster whose
       write responded before it was invoked. *)
    let frontier =
      List.fold_left
        (fun m c -> if resp_of c.write < w then Float.max m c.write.Op.inv else m)
        neg_infinity t.clusters
    in
    t.clusters <-
      List.filter
        (fun c ->
          resp_of c.write >= frontier
          || begin
               t.retired_b <- Float.max t.retired_b c.b;
               t.retired <- true;
               false
             end)
        t.clusters;
    match t.clusters with
    | [ c ] when t.parked = [] && c.last < w -> c.ops <- 0 (* collapse *)
    | _ -> ()
  end

let finalize t =
  flag_parked t ~deadline:infinity (fun r v ->
      if t.retired then stale_or_unwritten r v
      else Witness.Unwritten_value { read = r; value = v });
  verdict t

module Keyed = struct
  type instance = t

  let create_instance : unit -> instance = create

  type nonrec t = {
    instances : (string, instance) Hashtbl.t;
    hot : (string, instance) Hashtbl.t;
        (* keys fed since they last settled; only these can move when
           the watermark rises *)
    on_violation : (string -> Witness.t -> unit) option;
    mutable viols : (string * Witness.t) list;
    mutable k_seen : int;
    mutable k_resident : int; (* sum of [resident] across instances *)
    mutable k_peak : int;
  }

  let create ?on_violation () =
    {
      instances = Hashtbl.create 64;
      hot = Hashtbl.create 64;
      on_violation;
      viols = [];
      k_seen = 0;
      k_resident = 0;
      k_peak = 0;
    }

  let note t key (i : instance) had =
    match (had, i.verdict) with
    | None, Some w ->
      t.viols <- (key, w) :: t.viols;
      Option.iter (fun f -> f key w) t.on_violation
    | _ -> ()

  (* Run [f] on [i], keeping the running resident total and the hook. *)
  let step t key i f =
    let had = i.verdict and before = resident i in
    f i;
    t.k_resident <- t.k_resident + resident i - before;
    t.k_peak <- Stdlib.max t.k_peak t.k_resident;
    note t key i had

  let feed t ~key op =
    let i =
      match Hashtbl.find_opt t.instances key with
      | Some i -> i
      | None ->
        let i = create_instance () in
        Hashtbl.replace t.instances key i;
        i
    in
    step t key i (fun i -> feed i op);
    t.k_seen <- t.k_seen + 1;
    Hashtbl.replace t.hot key i

  let advance t ~watermark =
    (* Snapshot before mutating: settled keys drop out of the hot set,
       so a batch costs O(active keys), not O(keys ever touched). *)
    Hashtbl.fold (fun key i acc -> (key, i) :: acc) t.hot []
    |> List.iter (fun (key, i) ->
           step t key i (advance ~watermark);
           if settled i then Hashtbl.remove t.hot key)

  let finalize t =
    Hashtbl.fold
      (fun key i acc ->
        let had = i.verdict in
        let v = finalize i in
        note t key i had;
        (key, v) :: acc)
      t.instances []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let peak_resident t = t.k_peak
  let ops_seen t = t.k_seen
  let violations t = List.rev t.viols
  let keys t = Hashtbl.length t.instances
end
