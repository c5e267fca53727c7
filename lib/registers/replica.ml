(* One valuevector entry.  [value] is the record the first update of this
   tag carried (decoded off the wire, shared, never copied); [updated]
   is a sorted, duplicate-free int array that is never mutated once
   built — enrolling a client replaces it — so one array may back
   several entries. *)
type entry = { value : Wire.value; mutable updated : int array }

type t = {
  mutable current : Wire.value;
  (* Sorted by tag, exactly sized: no hashing, no per-node set cells,
     and the snapshot walks it in order with no sort. *)
  mutable vector : entry array;
}

(* The vector is a *window*, not an archive.  Entries below the
   [max_vector] largest tags are pruned: their certificates regenerate on
   demand, because every query folds the client's valQueue back into the
   vector before the reply snapshot is taken — a value any client still
   tracks is re-inserted (and the client re-enrolled) by that very query.
   Without the bound the vector grows with every write ever performed and
   a READACK serialises all of it, which is what melts the server at high
   client counts.  [t.current] always carries the maximum tag, so pruning
   can never evict it. *)
let max_vector = 32

(* Per-entry cap on the [updated] ids a READACK carries.  The replica
   keeps the full set (recovery and the Appendix-A certificates need it);
   only the wire snapshot truncates.  The querying client is always
   included — it was enrolled in every entry just before the reply, so
   any value present in [s − t] reply vectors stays degree-1 admissible
   through the client itself — and the smallest ids come first, so the
   subset is deterministic and coalitions survive across servers. *)
let max_wire_updated = 8

let create () =
  {
    current = Wire.initial_value_entry;
    vector = [| { value = Wire.initial_value_entry; updated = [||] } |];
  }

(* Index of the first element of [a] not below [x] under [cmp]:
   [Array.length a] when every element is. *)
let lower_bound cmp a x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if cmp a.(mid) x < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* [u] with [c] added: [u] itself when [c] is already in it. *)
let enroll u c =
  let i = lower_bound Int.compare u c in
  if i < Array.length u && u.(i) = c then u
  else
    Array.init
      (Array.length u + 1)
      (fun j -> if j < i then u.(j) else if j = i then c else u.(j - 1))

let prune t =
  let n = Array.length t.vector in
  if n > max_vector then
    t.vector <- Array.sub t.vector (n - max_vector) max_vector

(* Where [tag] sits in the vector, and whether it is already there. *)
let find t tag =
  let a = t.vector in
  let i = lower_bound (fun e tag -> Tstamp.compare e.value.Wire.tag tag) a tag in
  (i, i < Array.length a && Tstamp.equal a.(i).value.Wire.tag tag)

(* Insert [e] at index [i], then drop the lowest tags until at most
   [keep] entries remain.  A full window ([n = keep]: every write to a
   hot key) is updated in place with no allocation — the entries below
   [i] shift down one slot, the lowest falls off and [e] lands at
   [i - 1]; at [i = 0], [e] itself is the lowest and is dropped.
   Otherwise one allocation. *)
let insert t i e ~keep =
  let a = t.vector in
  let n = Array.length a in
  if n = keep then begin
    if i > 0 then begin
      Array.blit a 1 a 0 (i - 1);
      a.(i - 1) <- e
    end
  end
  else
    let drop = max 0 (n + 1 - keep) in
    t.vector <-
      Array.init (n + 1 - drop) (fun k ->
          let j = k + drop in
          if j < i then a.(j) else if j = i then e else a.(j - 1))

let update_within t (v : Wire.value) c ~keep =
  (match find t v.Wire.tag with
  | i, true -> t.vector.(i).updated <- enroll t.vector.(i).updated c
  | i, false -> insert t i { value = v; updated = [| c |] } ~keep);
  if Wire.compare_value v t.current > 0 then t.current <- v

(* The raw insert, pruning deferred: the query path must snapshot the
   reply *before* pruning, or a below-window value the client just
   echoed would be evicted again before the reply certifies it. *)
let update_unpruned t v c = update_within t v c ~keep:max_int

let update t v c =
  update_within t v c ~keep:max_vector;
  prune t

let snapshot t =
  Array.fold_right
    (fun e acc -> (e.value, Array.to_list e.updated) :: acc)
    t.vector []

(* The truncated updated set a READACK carries for one entry: the
   querying client first, then the smallest other ids, [max_wire_updated]
   in total.  [u] contains [client] — [handle] enrolled it in every entry
   before taking the snapshot — and is sorted, so every server that holds
   the same set serialises the same subset. *)
let wire_updated ~client u =
  let n = Array.length u in
  if n <= max_wire_updated then Array.to_list u
  else
    let rec smallest i k acc =
      if k = 0 || i >= n then List.rev acc
      else if u.(i) = client then smallest (i + 1) k acc
      else smallest (i + 1) (k - 1) (u.(i) :: acc)
    in
    client :: smallest 0 (max_wire_updated - 1) []

let snapshot_wire t ~client =
  Array.fold_right
    (fun e acc -> (e.value, wire_updated ~client e.updated) :: acc)
    t.vector []

(* Enroll [c] in every entry.  Neighbouring entries tend to hold equal
   sets — the same readers were enrolled in each — and then share one
   array: the heap holds one copy per run of equal sets, not per
   entry. *)
let enroll_all t c =
  let prev_old = ref [||] and prev_new = ref [||] in
  Array.iteri
    (fun i e ->
      let old = e.updated in
      let u =
        (* [i > 0]: every empty array is the same atom, so the first
           entry's [[||]] would match the initial [prev_old]. *)
        if i > 0 && old == !prev_old then !prev_new
        else
          let u = enroll old c in
          if u = !prev_new then !prev_new else u
      in
      prev_old := old;
      prev_new := u;
      e.updated <- u)
    t.vector

let handle t ~client req =
  match req with
  | Wire.Update v ->
    update t v client;
    Wire.Write_ack { current = t.current }
  | Wire.Query vq ->
    (* Echoed valQueue values are folded in unpruned: they must survive
       until this reply's snapshot, so the queue maximum always leaves
       with a fresh certificate (Lemma 3) even when it sits below the
       retention window.  The transient overshoot is bounded by the
       client-side queue cap; the window is re-enforced right after the
       snapshot. *)
    List.iter (fun v -> update_unpruned t v client) vq;
    (* Record that this client is being told every value in the reply,
       before replying — the rule the Appendix-A proofs rely on ("every
       server which replies to r₂ adds r₂ to its updated set before
       replying", used for arbitrary values in Lemmas 5 and 8).  Without
       it, a completed write is not admissible with degree 2 (MWA2
       breaks) and one read's certificate is invisible to later reads
       (MWA4 breaks). *)
    enroll_all t client;
    let rep =
      Wire.Read_ack { current = t.current; vector = snapshot_wire t ~client }
    in
    prune t;
    rep

(* The full durable state: enough to rebuild the replica exactly, as a
   plain (sorted, deterministic) value for recovery tests and tooling.
   Note the [updated] sets are part of it — the admissibility
   certificates of the fast protocols live there, so a recovery that
   dropped them would be no recovery at all. *)
type state = { s_current : Wire.value; s_vector : (Wire.value * int list) list }

let save t = { s_current = t.current; s_vector = snapshot t }

let load st =
  let t = create () in
  List.iter
    (fun ((v : Wire.value), updated) ->
      let u = Array.of_list (List.sort_uniq Int.compare updated) in
      match find t v.Wire.tag with
      | i, true ->
        t.vector.(i).updated <- Array.fold_left enroll t.vector.(i).updated u
      | i, false -> insert t i { value = v; updated = u } ~keep:max_int)
    st.s_vector;
  t.current <- st.s_current;
  t

let current t = t.current

(* The frozen form: zigzag LEB128 varints of [current] and of every
   vector entry with its *full* [updated] set, in vector order.

     current.ts current.wid current.payload n
     { ts wid payload |updated| id… } × n

   Zigzag maps every OCaml int (63 bits) onto the unsigned ones, and
   LEB128 writes those in at most 9 bytes, so the form is loss-free for
   [min_int] and [max_int] alike while a small id takes one byte.  The
   size is computed first, so freezing allocates the result and
   nothing else. *)
let zigzag n = (n lsl 1) lxor (n asr 62)

let unzigzag u = (u lsr 1) lxor (-(u land 1))

(* [u lsr 7 = 0]: [u] fits one byte, read as unsigned. *)
let varint_size n =
  let rec go u k = if u lsr 7 = 0 then k else go (u lsr 7) (k + 1) in
  go (zigzag n) 1

let value_size (v : Wire.value) =
  varint_size v.Wire.tag.Tstamp.ts
  + varint_size v.Wire.tag.Tstamp.wid
  + varint_size v.Wire.payload

let frozen_size t =
  Array.fold_left
    (fun acc e ->
      Array.fold_left
        (fun acc c -> acc + varint_size c)
        (acc + value_size e.value + varint_size (Array.length e.updated))
        e.updated)
    (value_size t.current + varint_size (Array.length t.vector))
    t.vector

let put_varint b pos n =
  let rec go u p =
    if u lsr 7 = 0 then begin
      Bytes.set b p (Char.chr u);
      p + 1
    end
    else begin
      Bytes.set b p (Char.chr (u land 0x7f lor 0x80));
      go (u lsr 7) (p + 1)
    end
  in
  go (zigzag n) pos

let put_value b p (v : Wire.value) =
  let p = put_varint b p v.Wire.tag.Tstamp.ts in
  let p = put_varint b p v.Wire.tag.Tstamp.wid in
  put_varint b p v.Wire.payload

let freeze t =
  let b = Bytes.create (frozen_size t) in
  let p = put_value b 0 t.current in
  let p = put_varint b p (Array.length t.vector) in
  let p =
    Array.fold_left
      (fun p e ->
        let p = put_value b p e.value in
        let p = put_varint b p (Array.length e.updated) in
        Array.fold_left (put_varint b) p e.updated)
      p t.vector
  in
  assert (p = Bytes.length b);
  Bytes.unsafe_to_string b

let thaw s =
  let pos = ref 0 in
  let varint () =
    let rec go u shift =
      let byte = Char.code s.[!pos] in
      incr pos;
      let u = u lor ((byte land 0x7f) lsl shift) in
      if byte < 0x80 then u else go u (shift + 7)
    in
    unzigzag (go 0 0)
  in
  let value () =
    let ts = varint () in
    let wid = varint () in
    let payload = varint () in
    { Wire.tag = { Tstamp.ts; wid }; payload }
  in
  let current = value () in
  (* Equal neighbouring sets share one array, as [enroll_all] leaves
     them. *)
  let prev = ref [||] in
  let entry _ =
    let value = value () in
    let u = Array.init (varint ()) (fun _ -> varint ()) in
    if u = !prev then { value; updated = !prev }
    else begin
      prev := u;
      { value; updated = u }
    end
  in
  let vector = Array.init (varint ()) entry in
  (* [current] is the top entry's value whenever that entry is the one
     that set it: share the record instead of holding two copies. *)
  let top = vector.(Array.length vector - 1).value in
  let current = if top = current then top else current in
  { current; vector }
