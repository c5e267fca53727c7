type t = Checker.Mw_properties.tag = { ts : int; wid : int }

let initial = { ts = 0; wid = -1 }

let compare a b =
  let c = Stdlib.compare a.ts b.ts in
  if c <> 0 then c else Stdlib.compare a.wid b.wid

let equal a b = compare a b = 0

let ( < ) a b = compare a b < 0

let max a b = if a < b then b else a

let next m ~wid = { ts = m.ts + 1; wid }

let pp = Checker.Mw_properties.pp_tag
