(* A named keyspace of registers: one {!Replica} per key, instantiated
   the first time the key is touched.  Like the replica's own value
   vector, the set of fully-materialised replicas is a recency window,
   not an archive: past [max_hot] resident replicas, the least recently
   used are demoted to their {!Replica.freeze}d bytes and thawed on the
   next access.  Demotion is loss-free — the frozen form carries the
   full vector with its [updated] certificate sets — so eviction can
   never cost atomicity, only a rebuild on the next touch of a cold
   key.

   Both tiers hang off one open-addressing {!Flat_index}: a key's
   4-byte slot names either its resident slot in the hot arrays or its
   record's offset in the cold arena, and a tier move rewrites that one
   word.  Keys are never removed, so the index has no tombstones. *)

(* ------------------------------------------------------------------ *)
(* Cold records                                                         *)
(* ------------------------------------------------------------------ *)

(* Records are appended to [arena] back to back:

     [key length][key][frozen length][Replica.freeze bytes]

   with unsigned LEB128 lengths. *)

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

(* The record at [o] has a key at [key_pos a o] and its frozen bytes
   after it. *)
let key_pos a o = o + len_size (get_len a o)

let frozen_pos a o =
  let klen = get_len a o in
  o + len_size klen + klen

let record_size a o =
  let f = frozen_pos a o in
  let flen = get_len a f in
  f - o + len_size flen + flen

let key_at a o = Bytes.sub_string a (key_pos a o) (get_len a o)

let frozen_at a o =
  let f = frozen_pos a o in
  let flen = get_len a f in
  Bytes.sub_string a (f + len_size flen) flen

let key_is a o key =
  let n = String.length key in
  get_len a o = n
  &&
  let k = key_pos a o in
  let rec eq i =
    i = n
    || (Bytes.unsafe_get a (k + i) = String.unsafe_get key i && eq (i + 1))
  in
  eq 0

(* ------------------------------------------------------------------ *)
(* The keyspace                                                         *)
(* ------------------------------------------------------------------ *)

(* Resident replicas live in struct-of-arrays slots: slot [h] holds
   [keys.(h)], [replicas.(h)], and three int32s in [links] — [prev]
   (towards newer slots), [next] (towards older ones) and [pos], the
   key's index slot.  Free slots form a stack threaded through [next].
   The arrays double as the hot set grows, up to [max_hot + 1] (the
   moment between a miss and its demotion pass).

   The index is a power-of-two table, linearly probed from the key's
   [Hashtbl.hash], doubled (rehashing every key and rewriting each
   resident's [pos]) once it would pass half load.  Thawing a key
   counts its record's bytes as dead; once the dead bytes exceed the
   live ones, compaction copies the live records in index order into
   an arena sized to them and rewrites each one's word in place.

   [count] and [hot] are [Atomic.t]s because [key_count] and
   [hot_count] are read off the server's replica lock; every other
   field is touched only under it. *)
type t = {
  max_hot : int;
  limit : int; (* the hot arrays' largest size *)
  mutable index : Flat_index.t;
  count : int Atomic.t; (* keys in the index *)
  (* the hot tier *)
  mutable keys : string array;
  mutable replicas : Replica.t array;
  mutable links : Bytes.t;
  vacant : Replica.t; (* what a free slot holds *)
  hot : int Atomic.t; (* resident keys *)
  mutable newest : int; (* -1 when no key is resident *)
  mutable oldest : int;
  mutable free : int; (* top of the free-slot stack, or -1 *)
  (* the cold tier *)
  mutable arena : Bytes.t;
  mutable used : int; (* bytes appended *)
  mutable dead : int; (* bytes of thawed records, reclaimed by compaction *)
}

let nil = -1

let prev t h = Int32.to_int (Bytes.get_int32_le t.links (12 * h))

let next t h = Int32.to_int (Bytes.get_int32_le t.links ((12 * h) + 4))

let pos t h = Int32.to_int (Bytes.get_int32_le t.links ((12 * h) + 8))

let set_prev t h v = Bytes.set_int32_le t.links (12 * h) (Int32.of_int v)

let set_next t h v = Bytes.set_int32_le t.links ((12 * h) + 4) (Int32.of_int v)

let set_pos t h v = Bytes.set_int32_le t.links ((12 * h) + 8) (Int32.of_int v)

let push_free t h =
  set_next t h t.free;
  t.free <- h

(* Grow the hot arrays from [n] slots to [n'], pushing the new slots on
   the free stack. *)
let resize t n' =
  let n = Array.length t.keys in
  let keys = Array.make n' "" and replicas = Array.make n' t.vacant in
  Array.blit t.keys 0 keys 0 n;
  Array.blit t.replicas 0 replicas 0 n;
  let links = Bytes.create (12 * n') in
  Bytes.blit t.links 0 links 0 (12 * n);
  t.keys <- keys;
  t.replicas <- replicas;
  t.links <- links;
  for h = n' - 1 downto n do
    push_free t h
  done

let default_max_hot = 4096

(* Slot numbers are int32s and 31-bit index words. *)
let max_slots = 1 lsl 30

let create ?(max_hot = default_max_hot) () =
  if max_hot < 1 then invalid_arg "Keyspace.create: max_hot must be >= 1";
  let limit = if max_hot >= max_slots then max_slots else max_hot + 1 in
  let t =
    {
      max_hot;
      limit;
      index = Flat_index.create 16;
      count = Atomic.make 0;
      keys = [||];
      replicas = [||];
      links = Bytes.empty;
      vacant = Replica.create ();
      hot = Atomic.make 0;
      newest = nil;
      oldest = nil;
      free = nil;
      arena = Bytes.empty;
      used = 0;
      dead = 0;
    }
  in
  resize t (min 8 limit);
  t

let unlink t h =
  let p = prev t h and n = next t h in
  if p = nil then t.newest <- n else set_next t p n;
  if n = nil then t.oldest <- p else set_prev t n p

let push_front t h =
  set_prev t h nil;
  set_next t h t.newest;
  if t.newest = nil then t.oldest <- h else set_prev t t.newest h;
  t.newest <- h

(* Make [key] resident with [replica], named by index slot [i]. *)
let admit t i key replica =
  if t.free = nil then begin
    let n = Array.length t.keys in
    if n >= t.limit then failwith "Keyspace: hot set past its slot limit";
    resize t (min t.limit (2 * n))
  end;
  let h = t.free in
  t.free <- next t h;
  t.keys.(h) <- key;
  t.replicas.(h) <- replica;
  set_pos t h i;
  Flat_index.set t.index i (Flat_index.resident h);
  Atomic.incr t.hot;
  push_front t h

let word t i = Flat_index.get t.index i

let key_of t w =
  if Flat_index.is_resident w then t.keys.(Flat_index.slot w)
  else key_at t.arena (Flat_index.offset w)

(* The first empty slot on [key]'s probe path. *)
let free_slot index key =
  let mask = Flat_index.slots index - 1 in
  let rec go i =
    if Flat_index.get index i = Flat_index.empty then i
    else go ((i + 1) land mask)
  in
  go (Hashtbl.hash key land mask)

(* Rehash every key into an index of twice the size. *)
let grow_index t =
  let old = t.index in
  let index = Flat_index.create (2 * Flat_index.slots old) in
  for i = 0 to Flat_index.slots old - 1 do
    let w = Flat_index.get old i in
    if w <> Flat_index.empty then begin
      let j = free_slot index (key_of t w) in
      Flat_index.set index j w;
      if Flat_index.is_resident w then set_pos t (Flat_index.slot w) j
    end
  done;
  t.index <- index

(* The index slot a new key takes: [i], the empty slot its probe ended
   at, unless the key would take the index past half load, which first
   doubles it. *)
let claim t key i =
  Atomic.incr t.count;
  if 2 * Atomic.get t.count > Flat_index.slots t.index then begin
    grow_index t;
    free_slot t.index key
  end
  else i

(* Append [key]'s record and point index slot [i] at it.  The word is
   made first, so an arena past the index's reach raises before
   anything changes. *)
let park t i key frozen =
  let w = Flat_index.cold t.used in
  let klen = String.length key and flen = String.length frozen in
  let n = len_size klen + klen + len_size flen + flen in
  if t.used + n > Bytes.length t.arena then begin
    (* A quarter more, not double: the slack is part of what every
       demoted key costs. *)
    let cap = max (t.used + n) (Bytes.length t.arena * 5 / 4 + 64) in
    let arena = Bytes.create cap in
    Bytes.blit t.arena 0 arena 0 t.used;
    t.arena <- arena
  end;
  let p = put_len t.arena t.used klen in
  Bytes.blit_string key 0 t.arena p klen;
  let p = put_len t.arena (p + klen) flen in
  Bytes.blit_string frozen 0 t.arena p flen;
  t.used <- p + flen;
  Flat_index.set t.index i w

let compact t =
  let arena = Bytes.create (t.used - t.dead) in
  let p = ref 0 in
  for i = 0 to Flat_index.slots t.index - 1 do
    let w = word t i in
    if w <> Flat_index.empty && not (Flat_index.is_resident w) then begin
      let o = Flat_index.offset w in
      let n = record_size t.arena o in
      Bytes.blit t.arena o arena !p n;
      Flat_index.set t.index i (Flat_index.cold !p);
      p := !p + n
    end
  done;
  t.arena <- arena;
  t.used <- !p;
  t.dead <- 0

(* Demote in batches: past [max_hot], one pass freezes the oldest slots
   off the tail of the list until [max 1 (3·max_hot/4)] remain, so the
   resident set after every op is exactly the most recently used ones
   and a pass costs O(dropped) — no sort, no walk of the survivors. *)
let evict t =
  let hot = Atomic.get t.hot in
  if hot > t.max_hot then
    for _ = 1 to hot - max 1 (3 * t.max_hot / 4) do
      let h = t.oldest in
      park t (pos t h) t.keys.(h) (Replica.freeze t.replicas.(h));
      unlink t h;
      t.keys.(h) <- "";
      t.replicas.(h) <- t.vacant;
      push_free t h;
      Atomic.decr t.hot
    done

(* The index slot holding [key], or the empty slot where its probe
   ends. *)
let lookup t key =
  let mask = Flat_index.slots t.index - 1 in
  let rec go i =
    let w = word t i in
    if
      w = Flat_index.empty
      ||
      if Flat_index.is_resident w then
        String.equal t.keys.(Flat_index.slot w) key
      else key_is t.arena (Flat_index.offset w) key
    then i
    else go ((i + 1) land mask)
  in
  go (Hashtbl.hash key land mask)

let find t key =
  let i = lookup t key in
  let w = word t i in
  if w = Flat_index.empty then begin
    let replica = Replica.create () in
    admit t (claim t key i) key replica;
    evict t;
    replica
  end
  else if Flat_index.is_resident w then begin
    let h = Flat_index.slot w in
    if t.newest <> h then begin
      unlink t h;
      push_front t h
    end;
    t.replicas.(h)
  end
  else begin
    let o = Flat_index.offset w in
    let replica = Replica.thaw (frozen_at t.arena o) in
    t.dead <- t.dead + record_size t.arena o;
    admit t i key replica;
    if t.dead > t.used - t.dead then compact t;
    evict t;
    replica
  end

let handle t ~key ~client req = Replica.handle (find t key) ~client req

let key_count t = Atomic.get t.count

let hot_count t = Atomic.get t.hot

let is_hot t key = Flat_index.is_resident (word t (lookup t key))

(* The durable state: every key's full replica snapshot, sorted for
   determinism.  [load] parks them all cold — a recovered server rebuilds
   each register lazily, on its first post-restart access. *)
type state = (string * Replica.state) list

let save t =
  let acc = ref [] in
  for i = 0 to Flat_index.slots t.index - 1 do
    let w = word t i in
    if w <> Flat_index.empty then begin
      let replica =
        if Flat_index.is_resident w then t.replicas.(Flat_index.slot w)
        else Replica.thaw (frozen_at t.arena (Flat_index.offset w))
      in
      acc := (key_of t w, Replica.save replica) :: !acc
    end
  done;
  List.sort (fun (a, _) (b, _) -> compare a b) !acc

let load ?max_hot st =
  let t = create ?max_hot () in
  List.iter
    (fun (k, s) ->
      park t (claim t k (lookup t k)) k (Replica.freeze (Replica.load s)))
    st;
  t
