type entry = { time : float; tag : string; detail : string }

type t = { mutable rev_entries : entry list; mutable count : int }

let create () = { rev_entries = []; count = 0 }

let add t ~time ~tag detail =
  t.rev_entries <- { time; tag; detail } :: t.rev_entries;
  t.count <- t.count + 1

let length t = t.count

let entries t = List.rev t.rev_entries

let fingerprint t =
  List.fold_left
    (fun acc e -> Hashtbl.hash (acc, e.time, e.tag, e.detail))
    0 (entries t)
