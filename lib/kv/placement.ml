(* Consistent-hash placement of keys onto shard groups.

   Each group contributes [vnodes] points to a hash ring; a key belongs
   to the group owning the first point clockwise of the key's own hash.
   Because group [g]'s points depend only on [g] (never on how many
   groups exist), growing an [n]-group ring to [n+1] only *adds* points:
   a key either keeps its successor point — same group as before — or is
   captured by one of the new group's points.  Shrinking is the mirror
   image.  That is the ~K/N remap property the qcheck suite pins down,
   and it is why the ring beats [hash mod n] (which remaps almost
   everything on every resize).

   Hashing is FNV-1a over the full 64-bit state — deterministic across
   runs and processes, unlike [Hashtbl.hash] which is documented to vary;
   placement must agree between a client today and a client tomorrow.
   Plain FNV-1a mixes short, similar strings ("shard-0/vnode-1", "user42")
   mostly into the low bits, and ring order is decided by the *high* bits,
   so we finish with a 64-bit avalanche (murmur3's fmix64) to spread the
   entropy across the whole word. *)

let fnv_offset = 0xcbf29ce484222325L

let fnv_prime = 0x100000001b3L

let avalanche h =
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xff51afd7ed558ccdL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
  Int64.logxor h (Int64.shift_right_logical h 33)

let hash64 s =
  let h = ref fnv_offset in
  String.iter
    (fun ch ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code ch))) fnv_prime)
    s;
  avalanche !h

(* Points each group plants on the ring: enough that per-group load
   imbalance stays within a few tens of percent of the mean. *)
let vnodes = 128

type t = {
  groups : int;
  (* The ring, sorted by unsigned point hash: [points.(i)] is owned by
     [owners.(i)].  Ties (astronomically unlikely) break by owner, so
     the sort — and therefore placement — is deterministic. *)
  points : int64 array;
  owners : int array;
}

let point_name g v = Printf.sprintf "shard-%d/vnode-%d" g v

let make ~groups =
  if groups < 1 then invalid_arg "Placement.make: groups must be >= 1";
  let pts = Array.make (groups * vnodes) (0L, 0) in
  for g = 0 to groups - 1 do
    for v = 0 to vnodes - 1 do
      pts.((g * vnodes) + v) <- (hash64 (point_name g v), g)
    done
  done;
  Array.sort
    (fun (ha, ga) (hb, gb) ->
      match Int64.unsigned_compare ha hb with 0 -> compare ga gb | c -> c)
    pts;
  { groups; points = Array.map fst pts; owners = Array.map snd pts }

(* First ring point at or clockwise-after the key's hash (unsigned),
   wrapping to point 0 past the ring's end: binary search for the
   leftmost point >= h. *)
let group_of t key =
  let h = hash64 key in
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare t.points.(mid) h < 0 then lo := mid + 1
    else hi := mid
  done;
  t.owners.(if !lo = n then 0 else !lo)

let spread t keys =
  let counts = Array.make t.groups 0 in
  List.iter
    (fun k ->
      let g = group_of t k in
      counts.(g) <- counts.(g) + 1)
    keys;
  counts
