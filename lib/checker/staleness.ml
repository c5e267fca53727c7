open Histories

type per_read = {
  read : Op.t;
  from_write : Op.t option;
  staleness : int;
}

let analyze h =
  if not (History.unique_writes h) then
    invalid_arg "Staleness.analyze: written values are not unique";
  let h = History.strip_pending_reads h in
  let writes = Online.initial_write :: History.writes h in
  let find_write v = List.find_opt (fun w -> Op.written_value w = Some v) writes in
  List.map
    (fun (r : Op.t) ->
      match r.Op.result with
      | None -> { read = r; from_write = None; staleness = max_int }
      | Some v -> (
        match find_write v with
        | None -> { read = r; from_write = None; staleness = max_int }
        | Some w ->
          (* Writes that finished entirely between w and the read: each
             one the read "missed". *)
          let missed = List.filter (Online.between ~write:w ~read:r) writes in
          { read = r; from_write = Some w; staleness = List.length missed }))
    (History.reads h)

let max_staleness h =
  List.fold_left (fun acc p -> max acc p.staleness) 0 (analyze h)

let histogram h =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun p ->
      Hashtbl.replace tbl p.staleness
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl p.staleness)))
    (analyze h);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let stale_fraction h =
  let reads = analyze h in
  match reads with
  | [] -> 0.0
  | _ ->
    let stale = List.length (List.filter (fun p -> p.staleness >= 1) reads) in
    float_of_int stale /. float_of_int (List.length reads)

let bounded_by h ~k = max_staleness h <= k
