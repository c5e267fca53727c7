type t = { name : string; decide : Exec_model.view -> int }

let decide t view =
  let d = t.decide view in
  if d <> 1 && d <> 2 then
    invalid_arg
      (Printf.sprintf "Strategy %s returned %d (must be 1 or 2)" t.name d);
  d

(* The digit written last according to one prefix, if any writes are
   visible in it. *)
let last_digit prefix =
  match List.rev (Exec_model.digits_of_prefix prefix) with
  | [] -> None
  | d :: _ -> Some d

let last_digits entries =
  List.filter_map (fun (e : Exec_model.view_entry) -> last_digit e.prefix) entries

let unanimous = function
  | [] -> None
  | d :: rest -> if List.for_all (Int.equal d) rest then Some d else None

let majority ~default digits =
  let ones = List.length (List.filter (Int.equal 1) digits) in
  let twos = List.length (List.filter (Int.equal 2) digits) in
  if ones > twos then 1 else if twos > ones then 2 else default

(* If every server visible in round 2 shows the same last-written digit,
   return it, else [default].  With default 2 this is the paper's
   "cannot differentiate Rel1 from Rel2 => return 2". *)
let last_unanimous_else default =
  {
    name = Printf.sprintf "last-unanimous-else-%d" default;
    decide =
      (fun v ->
        match unanimous (last_digits v.Exec_model.round2) with
        | Some d -> d
        | None -> default);
  }

let majority_last =
  {
    name = "majority-last";
    decide = (fun v -> majority ~default:2 (last_digits v.Exec_model.round2));
  }

(* Like [majority_last] but counting both rounds' prefixes. *)
let weighted_last =
  {
    name = "weighted-last";
    decide =
      (fun v ->
        majority ~default:2
          (last_digits v.Exec_model.round1 @ last_digits v.Exec_model.round2));
  }

let first_server_rules =
  {
    name = "first-server-rules";
    decide =
      (fun v ->
        match last_digits v.Exec_model.round2 with
        | d :: _ -> d
        | [] -> 2);
  }

(* Decide from round-1 prefixes only (ignores the second round). *)
let round1_majority =
  {
    name = "round1-majority";
    decide = (fun v -> majority ~default:2 (last_digits v.Exec_model.round1));
  }

(* The digit whose write token appears last across all round-2 prefixes
   (by position from the end), majority-style. *)
let latest_arrival =
  (* Score each digit by how close to the end of each prefix its write
     sits; the digit with the freshest aggregate position wins. *)
  {
    name = "latest-arrival";
    decide =
      (fun v ->
        let score = Array.make 3 0 in
        List.iter
          (fun (e : Exec_model.view_entry) ->
            let digits = Exec_model.digits_of_prefix e.prefix in
            List.iteri (fun pos d -> score.(d) <- score.(d) + pos + 1) digits)
          v.Exec_model.round2;
        if score.(1) > score.(2) then 1 else 2);
  }

(* When the other reader's first round is visible on a majority of
   servers, lean on the freshest digit seen anywhere, else behave like
   [majority_last]: exercises the parts of the view only read tokens
   populate. *)
let reader_aware =
  {
    name = "reader-aware";
    decide =
      (fun v ->
        let sees_other (e : Exec_model.view_entry) =
          List.exists
            (fun tok ->
              match tok with
              | Token.R { reader; _ } -> reader <> v.Exec_model.reader
              | Token.W _ -> false)
            e.Exec_model.prefix
        in
        let entries = v.Exec_model.round2 in
        let with_other = List.length (List.filter sees_other entries) in
        if 2 * with_other > List.length entries then begin
          (* Coordination visible: trust the freshest digit anywhere. *)
          let freshest =
            List.fold_left
              (fun acc (e : Exec_model.view_entry) ->
                match last_digit e.Exec_model.prefix with
                | Some d -> Some d
                | None -> acc)
              None entries
          in
          match freshest with Some d -> d | None -> 2
        end
        else majority ~default:2 (last_digits entries));
  }

(* 1 only when every visible prefix (both rounds) ends in 1, else 2: the
   most write-2-biased strategy that still honours the sequential
   anchors. *)
let pessimistic_quorum =
  {
    name = "pessimistic-quorum";
    decide =
      (fun v ->
        let all_one entries =
          entries <> []
          && List.for_all
               (fun (e : Exec_model.view_entry) ->
                 last_digit e.Exec_model.prefix = Some 1)
               entries
        in
        if all_one v.Exec_model.round1 && all_one v.Exec_model.round2 then 1
        else 2);
  }

let natural =
  [
    last_unanimous_else 2;
    last_unanimous_else 1;
    majority_last;
    weighted_last;
    first_server_rules;
    round1_majority;
    latest_arrival;
    reader_aware;
    pessimistic_quorum;
  ]

let view_fingerprint (v : Exec_model.view) =
  let entry (e : Exec_model.view_entry) =
    (e.server, List.map (Format.asprintf "%a" Token.pp) e.prefix)
  in
  Hashtbl.hash (v.reader, List.map entry v.round1, List.map entry v.round2)

let seeded seed =
  {
    name = Printf.sprintf "seeded-%d" seed;
    decide =
      (fun v ->
        match unanimous (last_digits v.Exec_model.round2) with
        | Some d -> d
        | None -> 1 + (Hashtbl.hash (seed, view_fingerprint v) land 1));
  }

let seeded_wild seed =
  {
    name = Printf.sprintf "seeded-wild-%d" seed;
    decide = (fun v -> 1 + (Hashtbl.hash (seed, view_fingerprint v) land 1));
  }
