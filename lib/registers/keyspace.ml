(* A named keyspace of registers: one {!Replica} per key, instantiated
   the first time the key is touched.  Like the replica's own value
   vector, the set of fully-materialised replicas is a recency window,
   not an archive: past [max_hot] resident replicas, the least recently
   used are demoted to their {!Replica.freeze}d bytes and thawed on the
   next access.  Demotion is loss-free — the frozen form carries the
   full vector with its [updated] certificate sets — so eviction can
   never cost atomicity, only a rebuild on the next touch of a cold
   key. *)

(* A resident replica, linked into the recency list: [next] points
   towards older slots, [prev] towards newer ones. *)
type slot = {
  key : string;
  replica : Replica.t;
  mutable prev : slot;
  mutable next : slot;
}

type t = {
  max_hot : int;
  hot : (string, slot) Hashtbl.t;
  cold : (string, string) Hashtbl.t; (* key → frozen replica *)
  (* Sentinel of the circular recency list: [lru.next] is the most
     recently used slot, [lru.prev] the least. *)
  lru : slot;
}

let default_max_hot = 4096

let create ?(max_hot = default_max_hot) () =
  if max_hot < 1 then invalid_arg "Keyspace.create: max_hot must be >= 1";
  let rec lru =
    { key = ""; replica = Replica.create (); prev = lru; next = lru }
  in
  { max_hot; hot = Hashtbl.create 64; cold = Hashtbl.create 64; lru }

let unlink s =
  s.prev.next <- s.next;
  s.next.prev <- s.prev

let push_front t s =
  s.prev <- t.lru;
  s.next <- t.lru.next;
  t.lru.next.prev <- s;
  t.lru.next <- s

(* Demote in batches: past [max_hot], one pass freezes the oldest slots
   off the tail of the list until [max 1 (3·max_hot/4)] remain, so the
   resident set after every op is exactly the most recently used ones
   and a pass costs O(dropped) — no sort, no walk of the survivors. *)
let evict t =
  let len = Hashtbl.length t.hot in
  if len > t.max_hot then
    for _ = 1 to len - max 1 (3 * t.max_hot / 4) do
      let s = t.lru.prev in
      unlink s;
      Hashtbl.remove t.hot s.key;
      Hashtbl.replace t.cold s.key (Replica.freeze s.replica)
    done

let find t key =
  match Hashtbl.find_opt t.hot key with
  | Some s ->
    if t.lru.next != s then begin
      unlink s;
      push_front t s
    end;
    s.replica
  | None ->
    let replica =
      match Hashtbl.find_opt t.cold key with
      | Some frozen ->
        Hashtbl.remove t.cold key;
        Replica.thaw frozen
      | None -> Replica.create ()
    in
    let s = { key; replica; prev = t.lru; next = t.lru } in
    push_front t s;
    Hashtbl.replace t.hot key s;
    evict t;
    replica

let handle t ~key ~client req = Replica.handle (find t key) ~client req

let key_count t = Hashtbl.length t.hot + Hashtbl.length t.cold

let hot_count t = Hashtbl.length t.hot

let is_hot t key = Hashtbl.mem t.hot key

(* The durable state: every key's full replica snapshot, sorted for
   determinism.  [load] parks them all cold — a recovered server rebuilds
   each register lazily, on its first post-restart access. *)
type state = (string * Replica.state) list

let save t =
  let acc =
    Hashtbl.fold (fun k s acc -> (k, Replica.save s.replica) :: acc) t.hot []
  in
  let acc =
    Hashtbl.fold
      (fun k frozen acc -> (k, Replica.save (Replica.thaw frozen)) :: acc)
      t.cold acc
  in
  List.sort (fun (a, _) (b, _) -> compare a b) acc

let load ?max_hot st =
  let t = create ?max_hot () in
  List.iter
    (fun (k, s) -> Hashtbl.replace t.cold k (Replica.freeze (Replica.load s)))
    st;
  t
