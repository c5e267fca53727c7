type t = Bytes.t

let create n = Bytes.make (4 * n) '\000'

let slots b = Bytes.length b / 4

let get b i = Int32.to_int (Bytes.get_int32_le b (4 * i)) land 0xFFFF_FFFF

let set b i w = Bytes.set_int32_le b (4 * i) (Int32.of_int w)

let empty = 0

let resident h = (h lsl 1) lor 1

let max_offset = (1 lsl 31) - 2

let cold o =
  if o > max_offset then
    failwith
      (Printf.sprintf "Keyspace: arena offset %d past the index's 31 bits" o);
  (o + 1) lsl 1

let is_resident w = w land 1 = 1

let slot w = w lsr 1

let offset w = (w lsr 1) - 1
