open Histories

type level = Atomic | Regular | Safe | Inconsistent

let level_to_string = function
  | Atomic -> "atomic"
  | Regular -> "regular"
  | Safe -> "safe"
  | Inconsistent -> "inconsistent"

let pp_level ppf l = Format.pp_print_string ppf (level_to_string l)

let rank = function Inconsistent -> 0 | Safe -> 1 | Regular -> 2 | Atomic -> 3

let compare_level a b = compare (rank a) (rank b)

let initial_write = Online.initial_write

let find_write writes v =
  if v = History.initial_value then Some initial_write
  else List.find_opt (fun w -> Op.written_value w = Some v) writes

let check_with ~read_ok h =
  let h = History.strip_pending_reads h in
  let size = History.length h in
  let writes = History.writes h in
  let exception Bad of Witness.t in
  try
    List.iter
      (fun (r : Op.t) ->
        match r.Op.result with
        | None -> ()
        | Some v -> (
          match find_write writes v with
          | None ->
            raise
              (Bad
                 (Witness.make (Witness.Unwritten_value { read = r; value = v })
                    ~history_size:size))
          | Some w -> (
            match read_ok writes r w with
            | Ok () -> ()
            | Error reason -> raise (Bad (Witness.make reason ~history_size:size)))))
      (History.reads h);
    Ok ()
  with Bad w -> Error w

let regular_read_ok writes r w =
  match Online.read_violation ~writes:(List.to_seq (initial_write :: writes)) r w with
  | Some reason -> Error reason
  | None -> Ok ()

let check_regular h = check_with ~read_ok:regular_read_ok h

let safe_read_ok writes r w =
  let has_concurrent_write =
    List.exists (fun w' -> Op.is_write w' && Op.concurrent r w') writes
  in
  if has_concurrent_write then
    (* Any written-or-initial value already being checked by find_write;
       additionally forbid reads from the future. *)
    if Op.precedes r w then Error (Witness.Future_read { read = r; write = w })
    else Ok ()
  else regular_read_ok writes r w

let check_safe h = check_with ~read_ok:safe_read_ok h

let classify h =
  if Atomicity.is_atomic h then Atomic
  else
    match check_regular h with
    | Ok () -> Regular
    | Error _ -> ( match check_safe h with Ok () -> Safe | Error _ -> Inconsistent)
