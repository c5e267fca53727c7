(* A named keyspace of registers: one {!Replica} per key, instantiated
   the first time the key is touched.  Like the replica's own value
   vector, the set of fully-materialised replicas is a recency window,
   not an archive: past [max_hot] resident replicas, the least recently
   used are demoted to their {!Replica.save} snapshots and rebuilt on the
   next access.  Demotion is loss-free — the snapshot carries the full
   vector with its [updated] certificate sets — so eviction can never
   cost atomicity, only a rebuild on the next touch of a cold key. *)

type slot = { replica : Replica.t; mutable last_use : int }

type t = {
  max_hot : int;
  hot : (string, slot) Hashtbl.t;
  cold : (string, Replica.state) Hashtbl.t;
  mutable tick : int; (* recency stamp source *)
}

let default_max_hot = 4096

let create ?(max_hot = default_max_hot) () =
  if max_hot < 1 then invalid_arg "Keyspace.create: max_hot must be >= 1";
  {
    max_hot;
    hot = Hashtbl.create 64;
    cold = Hashtbl.create 64;
    tick = 0;
  }

(* Demote in batches: one eviction pass sorts the hot set by recency and
   snapshots the oldest quarter, so the O(hot log hot) cost amortises
   over [max_hot / 4] accesses instead of recurring per operation. *)
let evict t =
  if Hashtbl.length t.hot > t.max_hot then begin
    let slots = Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.hot [] in
    let slots =
      List.sort (fun (_, a) (_, b) -> compare a.last_use b.last_use) slots
    in
    let keep = max 1 (3 * t.max_hot / 4) in
    let drop = List.length slots - keep in
    List.iteri
      (fun i (k, s) ->
        if i < drop then begin
          Hashtbl.remove t.hot k;
          Hashtbl.replace t.cold k (Replica.save s.replica)
        end)
      slots
  end

let find t key =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.hot key with
  | Some s ->
    s.last_use <- t.tick;
    s.replica
  | None ->
    let replica =
      match Hashtbl.find_opt t.cold key with
      | Some st ->
        Hashtbl.remove t.cold key;
        Replica.load st
      | None -> Replica.create ()
    in
    Hashtbl.replace t.hot key { replica; last_use = t.tick };
    evict t;
    replica

let handle t ~key ~client req = Replica.handle (find t key) ~client req

let key_count t = Hashtbl.length t.hot + Hashtbl.length t.cold

let hot_count t = Hashtbl.length t.hot

(* The durable state: every key's full replica snapshot, sorted for
   determinism.  [load] parks them all cold — a recovered server rebuilds
   each register lazily, on its first post-restart access. *)
type state = (string * Replica.state) list

let save t =
  let acc =
    Hashtbl.fold (fun k s acc -> (k, Replica.save s.replica) :: acc) t.hot []
  in
  let acc = Hashtbl.fold (fun k st acc -> (k, st) :: acc) t.cold acc in
  List.sort (fun (a, _) (b, _) -> compare a b) acc

let load ?max_hot st =
  let t = create ?max_hot () in
  List.iter (fun (k, s) -> Hashtbl.replace t.cold k s) st;
  t
