open Histories

let initial_write = Online.initial_write

let resp_of (o : Op.t) = match o.Op.resp with Some f -> f | None -> infinity

(* Completed reads paired with the write of their value, or the first
   read (in history order) of a value nobody wrote. *)
let resolve h =
  (match History.well_formed h with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Atomicity.check: ill-formed history: " ^ msg));
  if not (History.unique_writes h) then
    invalid_arg "Atomicity.check: written values are not unique";
  let h = History.strip_pending_reads h in
  let writes = initial_write :: History.writes h in
  let by_value = Hashtbl.create 64 in
  List.iter
    (fun w -> Option.iter (fun v -> Hashtbl.replace by_value v w) (Op.written_value w))
    writes;
  let rec go acc = function
    | [] -> Ok (h, writes, List.rev acc)
    | (r : Op.t) :: rest -> (
      match r.Op.result with
      | None -> go acc rest
      | Some v -> (
        match Hashtbl.find_opt by_value v with
        | Some w -> go ((r, w) :: acc) rest
        | None -> Error (Witness.Unwritten_value { read = r; value = v })))
  in
  go [] (History.reads h)

(* Witness priority: the first unwritten read, then the first future or
   stale read, both in history order; then a zone conflict, found by
   feeding the whole history to the streaming core. *)
let check h =
  let history_size = History.length (History.strip_pending_reads h) in
  let fail reason = Error (Witness.make reason ~history_size) in
  match resolve h with
  | Error reason -> fail reason
  | Ok (h, writes, reads) -> (
    match
      List.find_map
        (fun (r, w) -> Online.read_violation ~writes:(List.to_seq writes) r w)
        reads
    with
    | Some reason -> fail reason
    | None ->
      let t = Online.create () in
      List.iter (Online.feed t) (History.ops h);
      Result.map_error
        (fun (w : Witness.t) -> Witness.make w.Witness.reason ~history_size)
        (Online.finalize t))

let is_atomic h = match check h with Ok () -> true | Error _ -> false

(* Validate a candidate permutation against Definition 2.1 directly. *)
let valid_permutation ops =
  let real_time_ok =
    let rec go = function
      | [] | [ _ ] -> true
      | a :: rest -> List.for_all (fun b -> not (Op.precedes b a)) rest && go rest
    in
    go ops
  in
  let read_from_ok =
    let rec go state = function
      | [] -> true
      | (o : Op.t) :: rest -> (
        match o.Op.kind with
        | Op.Write v -> go v rest
        | Op.Read -> o.Op.result = Some state && go state rest)
    in
    go History.initial_value ops
  in
  real_time_ok && read_from_ok

(* Without conflicts, an obligation u -> v means a(u) < b(v) and
   b(u) <= a(v), so a(u) + b(u) < a(v) + b(v): ordering clusters by the
   midpoint of their zone is a topological order. *)
let linearization h =
  match (check h, resolve h) with
  | Error _, _ | _, Error _ -> None
  | Ok (), Ok (_, writes, reads) ->
    let by_inv (a : Op.t) (b : Op.t) = compare (a.Op.inv, a.Op.id) (b.Op.inv, b.Op.id) in
    let clusters =
      List.map
        (fun (w : Op.t) ->
          let rs =
            List.sort by_inv
              (List.filter_map (fun (r, w') -> if w' == w then Some r else None) reads)
          in
          let a = List.fold_left (fun m r -> Float.min m (resp_of r)) (resp_of w) rs in
          let b = List.fold_left (fun m (r : Op.t) -> Float.max m r.Op.inv) w.Op.inv rs in
          ((a +. b, w.Op.id), if w == initial_write then rs else w :: rs))
        writes
    in
    let permutation =
      List.concat_map snd (List.stable_sort (fun (k, _) (k', _) -> compare k k') clusters)
    in
    if valid_permutation permutation then Some permutation else None
