(* A named keyspace of registers: one {!Replica} per key, instantiated
   the first time the key is touched.  Like the replica's own value
   vector, the set of fully-materialised replicas is a recency window,
   not an archive: past [max_hot] resident replicas, the least recently
   used are demoted to their {!Replica.freeze}d bytes and thawed on the
   next access.  Demotion is loss-free — the frozen form carries the
   full vector with its [updated] certificate sets — so eviction can
   never cost atomicity, only a rebuild on the next touch of a cold
   key.

   The cold tier is one byte arena behind an open-addressing index, so
   a demoted key costs its record's bytes plus one index slot, not heap
   blocks: 5.7 words for a 12-byte key whose replica holds one vector
   entry (32 768 keys, [max_hot] 4 096), where a resident one costs
   about 22. *)

(* ------------------------------------------------------------------ *)
(* The cold store                                                       *)
(* ------------------------------------------------------------------ *)

(* Records are appended to [arena] back to back:

     [key length][key][frozen length][Replica.freeze bytes]

   with unsigned LEB128 lengths.  [index] is a power-of-two table of
   arena offsets, linearly probed from the key's [Hashtbl.hash]; a slot
   holds an offset, [empty] or [tomb].  Thawing a key tombstones its
   slot and counts its record's bytes as dead; once the dead bytes
   exceed the live ones, compaction copies the live records in slot
   order into an arena sized to them and rewrites each slot's offset in
   place, so it never rehashes.  Only an index rebuild rehashes: once
   live and tombstoned slots pass three quarters of the table (so a
   probe always meets an empty slot), at double the size when live
   ones pass half of it, else at the same size, dropping the
   tombstones.

   [live] is an [Atomic.t] because [key_count] is read off the
   server's replica lock; every other field is touched only under
   it. *)
type cold = {
  mutable arena : Bytes.t;
  mutable used : int; (* bytes appended *)
  mutable dead : int; (* bytes of thawed records, reclaimed by compaction *)
  mutable index : int array;
  mutable tombs : int; (* tombstoned slots *)
  live : int Atomic.t; (* records the index reaches *)
}

let empty = -1

let tomb = -2

let cold_create () =
  {
    arena = Bytes.empty;
    used = 0;
    dead = 0;
    index = Array.make 8 empty;
    tombs = 0;
    live = Atomic.make 0;
  }

let len_size n =
  let rec go n k = if n < 0x80 then k else go (n lsr 7) (k + 1) in
  go n 1

let put_len b p n =
  let rec go n p =
    if n < 0x80 then begin
      Bytes.unsafe_set b p (Char.unsafe_chr n);
      p + 1
    end
    else begin
      Bytes.unsafe_set b p (Char.unsafe_chr (n land 0x7f lor 0x80));
      go (n lsr 7) (p + 1)
    end
  in
  go n p

let get_len b p =
  let rec go u shift p =
    let byte = Char.code (Bytes.get b p) in
    let u = u lor ((byte land 0x7f) lsl shift) in
    if byte < 0x80 then u else go u (shift + 7) (p + 1)
  in
  go 0 0 p

(* The record at [o] has a key at [key_pos o] and its frozen bytes
   after it. *)
let key_pos c o = o + len_size (get_len c.arena o)

let frozen_pos c o =
  let klen = get_len c.arena o in
  o + len_size klen + klen

let record_size c o =
  let f = frozen_pos c o in
  let flen = get_len c.arena f in
  f - o + len_size flen + flen

let key_at c o = Bytes.sub_string c.arena (key_pos c o) (get_len c.arena o)

let frozen_at c o =
  let f = frozen_pos c o in
  let flen = get_len c.arena f in
  Bytes.sub_string c.arena (f + len_size flen) flen

let key_is c o key =
  let n = String.length key in
  get_len c.arena o = n
  &&
  let k = key_pos c o in
  let rec eq i =
    i = n
    || (Bytes.unsafe_get c.arena (k + i) = String.unsafe_get key i
       && eq (i + 1))
  in
  eq 0

(* The slot holding [key]'s record, or -1. *)
let lookup c key =
  let mask = Array.length c.index - 1 in
  let rec go i =
    let o = c.index.(i) in
    if o = empty then -1
    else if o <> tomb && key_is c o key then i
    else go ((i + 1) land mask)
  in
  go (Hashtbl.hash key land mask)

(* The first free slot (empty or tombstoned) on [h]'s probe path. *)
let free_slot index h =
  let mask = Array.length index - 1 in
  let rec go i = if index.(i) >= 0 then go ((i + 1) land mask) else i in
  go (h land mask)

(* Rehash every live offset into a table of [cap] slots; tombstones
   are dropped. *)
let rehash c cap =
  let index = Array.make cap empty in
  Array.iter
    (fun o ->
      if o >= 0 then index.(free_slot index (Hashtbl.hash (key_at c o))) <- o)
    c.index;
  c.index <- index;
  c.tombs <- 0

let compact c =
  let arena = Bytes.create (c.used - c.dead) in
  let p = ref 0 in
  Array.iteri
    (fun i o ->
      if o >= 0 then begin
        let n = record_size c o in
        Bytes.blit c.arena o arena !p n;
        c.index.(i) <- !p;
        p := !p + n
      end)
    c.index;
  c.arena <- arena;
  c.used <- !p;
  c.dead <- 0

(* Append [key]'s record; [key] must not be in the store.  A full
   arena grows by a quarter, not double: its slack is part of what
   every demoted key costs. *)
let cold_add c key frozen =
  let klen = String.length key and flen = String.length frozen in
  let n = len_size klen + klen + len_size flen + flen in
  if c.used + n > Bytes.length c.arena then begin
    let cap = max (c.used + n) (Bytes.length c.arena * 5 / 4 + 64) in
    let arena = Bytes.create cap in
    Bytes.blit c.arena 0 arena 0 c.used;
    c.arena <- arena
  end;
  let o = c.used in
  let p = put_len c.arena o klen in
  Bytes.blit_string key 0 c.arena p klen;
  let p = put_len c.arena (p + klen) flen in
  Bytes.blit_string frozen 0 c.arena p flen;
  c.used <- p + flen;
  let cap = Array.length c.index in
  let live = Atomic.get c.live in
  if 4 * (live + c.tombs + 1) > 3 * cap then
    rehash c (if 2 * (live + 1) > cap then 2 * cap else cap);
  let i = free_slot c.index (Hashtbl.hash key) in
  if c.index.(i) = tomb then c.tombs <- c.tombs - 1;
  c.index.(i) <- o;
  Atomic.incr c.live

(* Remove [key]'s record and return its frozen bytes. *)
let cold_take c key =
  let i = lookup c key in
  if i < 0 then None
  else begin
    let o = c.index.(i) in
    let frozen = frozen_at c o in
    c.index.(i) <- tomb;
    c.tombs <- c.tombs + 1;
    Atomic.decr c.live;
    c.dead <- c.dead + record_size c o;
    if c.dead > c.used - c.dead then compact c;
    Some frozen
  end

(* ------------------------------------------------------------------ *)
(* The keyspace                                                         *)
(* ------------------------------------------------------------------ *)

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
  cold : cold;
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
  { max_hot; hot = Hashtbl.create 64; cold = cold_create (); lru }

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
      cold_add t.cold s.key (Replica.freeze s.replica)
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
      match cold_take t.cold key with
      | Some frozen -> Replica.thaw frozen
      | None -> Replica.create ()
    in
    let s = { key; replica; prev = t.lru; next = t.lru } in
    push_front t s;
    Hashtbl.replace t.hot key s;
    evict t;
    replica

let handle t ~key ~client req = Replica.handle (find t key) ~client req

let key_count t = Hashtbl.length t.hot + Atomic.get t.cold.live

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
    Array.fold_left
      (fun acc o ->
        if o < 0 then acc
        else
          (key_at t.cold o, Replica.save (Replica.thaw (frozen_at t.cold o)))
          :: acc)
      acc t.cold.index
  in
  List.sort (fun (a, _) (b, _) -> compare a b) acc

let load ?max_hot st =
  let t = create ?max_hot () in
  List.iter
    (fun (k, s) -> cold_add t.cold k (Replica.freeze (Replica.load s)))
    st;
  t
