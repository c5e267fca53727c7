(** The adaptive ("semifast-style") register: fast reads when a safe
    certificate exists, a slow write-back round otherwise.

    §6 of the paper situates its results against semifast and
    almost-strong-consistency implementations (refs [14, 25, 28]): if
    strictly-fast reads are impossible beyond [R ≥ S/t − 2], what can a
    register that is *allowed* to occasionally go slow do?  This protocol
    answers constructively:

    - writes are the standard two rounds;
    - a read first runs the fast-read round, but accepts a value only
      when it is admissible at a degree with *margin*: [a] such that
      [S − a·t > t], so the certifying set µ spans more than [t] servers
      and therefore intersects every later operation's quorum, whatever
      the reader count.  Note the degree range no longer involves R at
      all — that is what frees the protocol from the threshold.
    - if no value clears that bar, the read falls back to the classic
      second round: write back the maximum value observed, then return
      it (the ABD repair).

    The result is atomic at any [R] (the `sf` benchmark and the test
    suite check it under the very adversary that breaks Algorithm 1 & 2
    past the threshold), at the cost of a measured fraction of two-round
    reads — quantifying exactly the trade the impossibility theorem
    forces.

    Scope note: this is *not* a semifast implementation in the technical
    sense of Georgiou, Nicolaou & Shvartsman (the paper's ref [14],
    which bounds how many reads per write may be slow — and which §6
    notes is impossible for multi-writer registers).  Under contention
    this register may take arbitrarily many slow reads per write, which
    is precisely how it coexists with that impossibility. *)

let name = "adaptive read (W2R1.5)"

(* Optimistically one round; the design point records the fast path. *)
let design_point = Quorums.Bounds.W2R1

(* Degrees whose certificate spans more than t servers: S − a·t > t. *)
let safe_degrees ~s ~t =
  let rec go a acc = if s - (a * t) > t then go (a + 1) (a :: acc) else acc in
  List.rev (go 1 [])

(* The adaptive read over any backend.  [note] observes which path the
   read took (`Fast or `Slow). *)
let read_core ?(note = fun _ -> ()) (ctx : Client_core.ctx) ~reader ~val_queue ~k =
  let ep = ctx.Client_core.reader_ep reader in
  let s = ctx.Client_core.s in
  let t = ctx.Client_core.t in
  ep.Client_core.exec (Wire.Query !val_queue) (fun replies ->
      let seen = Client_core.merge_queue val_queue replies in
      let degrees = safe_degrees ~s ~t in
      (* Only the *newest* observed value may be returned fast: returning
         an older value, however well certified, would be a stale read
         whenever the newer one belongs to a completed write.  [seen] is
         sorted descending, so only its head is a fast candidate. *)
      let certified =
        match seen with
        | v :: _
          when List.exists
                 (fun degree ->
                   Client_core.admissible ~s ~t ~value:v ~replies ~degree)
                 degrees ->
          Some v
        | _ -> None
      in
      match certified with
      | Some v ->
        note `Fast;
        k v.Wire.payload (Some v.Wire.tag)
      | None ->
        (* Slow path: the ABD repair round. *)
        note `Slow;
        let maxv = Client_core.max_current replies in
        ep.Client_core.exec (Wire.Update maxv) (fun _acks ->
            k maxv.Wire.payload (Some maxv.Wire.tag)))

let new_writer ctx ~writer =
  let last_written = ref Wire.initial_value_entry in
  fun ~payload ~k ->
    Client_core.two_round_write ctx ~writer ~payload ~last_written ~k

let new_reader ?note ctx ~reader =
  let val_queue = ref [ Wire.initial_value_entry ] in
  fun ~k -> read_core ?note ctx ~reader ~val_queue ~k

let algo =
  {
    Client_core.new_writer;
    new_reader = (fun ctx ~reader -> new_reader ctx ~reader);
  }
