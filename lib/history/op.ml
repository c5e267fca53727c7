type proc = Writer of int | Reader of int

let proc_equal a b = a = b

let pp_proc ppf = function
  | Writer i -> Format.fprintf ppf "w%d" i
  | Reader i -> Format.fprintf ppf "r%d" i

type kind = Write of int | Read

type t = {
  id : int;
  proc : proc;
  kind : kind;
  inv : float;
  resp : float option;
  result : int option;
}

let write ~id ~proc ~value ~inv ~resp =
  { id; proc; kind = Write value; inv; resp; result = None }

let read ~id ~proc ~inv ~resp ~result = { id; proc; kind = Read; inv; resp; result }

let is_write t = match t.kind with Write _ -> true | Read -> false

let is_read t = not (is_write t)

let is_complete t = t.resp <> None

let written_value t = match t.kind with Write v -> Some v | Read -> None

let value_of t = match t.kind with Write v -> Some v | Read -> t.result

let precedes o1 o2 =
  match o1.resp with None -> false | Some f -> f < o2.inv

let concurrent o1 o2 = (not (precedes o1 o2)) && not (precedes o2 o1)

let pp ppf t =
  let pp_time ppf = function
    | None -> Format.fprintf ppf "…"
    | Some f -> Format.fprintf ppf "%.3f" f
  in
  match t.kind with
  | Write v ->
    Format.fprintf ppf "@[#%d %a: write(%d) [%.3f, %a]@]" t.id pp_proc t.proc v
      t.inv pp_time t.resp
  | Read ->
    let pp_res ppf = function
      | None -> Format.fprintf ppf "?"
      | Some v -> Format.fprintf ppf "%d" v
    in
    Format.fprintf ppf "@[#%d %a: read() -> %a [%.3f, %a]@]" t.id pp_proc
      t.proc pp_res t.result t.inv pp_time t.resp
