type t = { label : string; arrivals : Token.t list array }

let validate arrivals =
  Array.iteri
    (fun srv seq ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun tok ->
          if Hashtbl.mem seen tok then
            invalid_arg
              (Format.asprintf "Exec_model: token %a repeated on server %d"
                 Token.pp tok srv);
          Hashtbl.replace seen tok ())
        seq;
      List.iteri
        (fun pos tok ->
          match tok with
          | Token.R { reader; round = 2 } ->
            let round1 = Token.r ~reader ~round:1 in
            let earlier = List.filteri (fun i _ -> i < pos) seq in
            if
              List.exists (Token.equal round1) seq
              && not (List.exists (Token.equal round1) earlier)
            then
              invalid_arg
                (Format.asprintf
                   "Exec_model: round 2 of reader %d precedes its round 1 on server %d"
                   reader srv)
          | Token.W _ | Token.R _ -> ())
        seq)
    arrivals

let make ~label arrivals =
  validate arrivals;
  { label; arrivals = Array.map (fun l -> l) arrivals }

let label t = t.label

let relabel t label = { t with label }

let servers t = Array.length t.arrivals

let arrivals t srv = t.arrivals.(srv)

let update t srv seq =
  let arrivals = Array.copy t.arrivals in
  arrivals.(srv) <- seq;
  validate arrivals;
  { t with arrivals }

let remove t ~server tok =
  update t server (List.filter (fun x -> not (Token.equal x tok)) t.arrivals.(server))

let insert_after t ~server ~after tok =
  let seq = t.arrivals.(server) in
  if List.exists (Token.equal tok) seq then
    invalid_arg
      (Format.asprintf "Exec_model.insert_after: %a already on server %d" Token.pp
         tok server);
  if not (List.exists (Token.equal after) seq) then
    invalid_arg
      (Format.asprintf "Exec_model.insert_after: anchor %a absent on server %d"
         Token.pp after server);
  let rec go = function
    | [] -> []
    | x :: rest -> if Token.equal x after then x :: tok :: rest else x :: go rest
  in
  update t server (go seq)

let append t ~server tok =
  let seq = t.arrivals.(server) in
  if List.exists (Token.equal tok) seq then
    invalid_arg
      (Format.asprintf "Exec_model.append: %a already on server %d" Token.pp tok
         server);
  update t server (seq @ [ tok ])

let equal a b =
  Array.length a.arrivals = Array.length b.arrivals
  && begin
       let same = ref true in
       Array.iteri
         (fun i seq ->
           if not (List.equal Token.equal seq b.arrivals.(i)) then same := false)
         a.arrivals;
       !same
     end

type view_entry = { server : int; prefix : Token.t list }

type view = { reader : int; round1 : view_entry list; round2 : view_entry list }

let round_view t ~reader ~round =
  let tok = Token.r ~reader ~round in
  let entries = ref [] in
  Array.iteri
    (fun srv seq ->
      let rec prefix acc = function
        | [] -> None
        | x :: rest ->
          if Token.equal x tok then Some (List.rev acc) else prefix (x :: acc) rest
      in
      match prefix [] seq with
      | None -> ()
      | Some p -> entries := { server = srv; prefix = p } :: !entries)
    t.arrivals;
  List.sort (fun a b -> compare a.server b.server) !entries

let view t ~reader =
  {
    reader;
    round1 = round_view t ~reader ~round:1;
    round2 = round_view t ~reader ~round:2;
  }

let entry_equal a b =
  a.server = b.server && List.equal Token.equal a.prefix b.prefix

let view_equal a b =
  a.reader = b.reader
  && List.equal entry_equal a.round1 b.round1
  && List.equal entry_equal a.round2 b.round2

let digits_of_prefix prefix = List.filter_map Token.digit prefix

let pp ppf t =
  Format.fprintf ppf "@[<v2>%s:@," t.label;
  Array.iteri
    (fun srv seq ->
      Format.fprintf ppf "s%d: %a@," srv
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
           Token.pp)
        seq)
    t.arrivals;
  Format.fprintf ppf "@]"
