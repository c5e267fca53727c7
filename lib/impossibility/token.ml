type t = W of int | R of { reader : int; round : int }

let equal a b = a = b

let digit = function W d -> Some d | R _ -> None

let pp ppf = function
  | W d -> Format.fprintf ppf "W%d" d
  | R { reader; round } -> Format.fprintf ppf "R%d(%d)" reader round

let w1 = W 1

let w2 = W 2

let r ~reader ~round = R { reader; round }
