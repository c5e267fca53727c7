(* BENCH_results.json, declared once.  Every section is one table; a
   table declares its columns (key, check, and how the value is
   computed from a measurement).  The bench harness encodes rows
   through these declarations and the validator checks documents
   against them, so a key, its type and its bound are spelled in
   exactly one place. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "at byte %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %c, got %c" c c')
    | None -> fail (Printf.sprintf "expected %c, got end of input" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "bad literal (wanted %s)" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance ()
        | Some '/' -> Buffer.add_char buf '/'; advance ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance ()
        | Some 't' -> Buffer.add_char buf '\t'; advance ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
          | Some _ -> Buffer.add_char buf '?' (* non-ASCII: placeholder *)
          | None -> fail "bad \\u escape");
          pos := !pos + 4
        | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or } in object"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ] in array"
        in
        elements ();
        List (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing bytes after document";
  v

(* ------------------------------------------------------------------ *)
(* Printer                                                              *)
(* ------------------------------------------------------------------ *)

(* Integers print bare; anything else in the fewest digits that read
   back as the same float. *)
let number f =
  if not (Float.is_finite f) then invalid_arg "Results.print: non-finite number"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let digits p = Printf.sprintf "%.*g" p f in
    match List.find_opt (fun p -> float_of_string (digits p) = f) [ 15; 16 ] with
    | Some p -> digits p
    | None -> digits 17

let escape s =
  let char = function
    | '"' -> "\\\""
    | '\\' -> "\\\\"
    | '\n' -> "\\n"
    | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
    | c -> String.make 1 c
  in
  "\"" ^ String.concat "" (List.map char (List.of_seq (String.to_seq s))) ^ "\""

let rec inline = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number f
  | Str s -> escape s
  | List items -> "[" ^ String.concat ", " (List.map inline items) ^ "]"
  | Obj [] -> "{}"
  | Obj fields ->
    "{ "
    ^ String.concat ", "
        (List.map (fun (k, v) -> escape k ^ ": " ^ inline v) fields)
    ^ " }"

let scalar = function
  | Null | Bool _ | Num _ | Str _ -> true
  | List _ | Obj _ -> false

(* A container of scalars that fits on a short line prints on it; every
   other container puts one member per line. *)
let print j =
  let rec go indent j =
    let lines opening closing members =
      let pad = String.make (indent + 2) ' ' in
      opening ^ "\n"
      ^ String.concat ",\n" (List.map (fun (k, v) -> pad ^ k ^ go (indent + 2) v) members)
      ^ "\n" ^ String.make indent ' ' ^ closing
    in
    let one_line members = List.for_all scalar members && String.length (inline j) <= 72 in
    match j with
    | List items when not (one_line items) ->
      lines "[" "]" (List.map (fun v -> ("", v)) items)
    | Obj fields when not (one_line (List.map snd fields)) ->
      lines "{" "}" (List.map (fun (k, v) -> (escape k ^ ": ", v)) fields)
    | Null | Bool _ | Num _ | Str _ | List _ | Obj _ -> inline j
  in
  go 0 j

(* ------------------------------------------------------------------ *)
(* Checks                                                               *)
(* ------------------------------------------------------------------ *)

type check =
  | Text  (** non-empty string *)
  | One_of of string list
  | Above of float  (** number > bound *)
  | At_least of float  (** number >= bound *)
  | Map_of of check  (** non-empty object, every value passing the check *)

(* Views of one JSON type; every other type reads as [None]. *)
let[@warning "-4"] as_str = function Str s -> Some s | _ -> None
let[@warning "-4"] as_num = function Num f -> Some f | _ -> None
let[@warning "-4"] as_list = function List l -> Some l | _ -> None
let[@warning "-4"] as_obj = function Obj fields -> Some fields | _ -> None

let err path msg = path ^ ": " ^ msg

(* Errors of value [v] at [path] against [c], as "path: message". *)
let rec check c path v =
  let expected what = [ err path ("expected " ^ what) ] in
  let bound ok op x =
    match as_num v with
    | Some f when ok f -> []
    | Some _ -> [ err path (Printf.sprintf "must be %s %g" op x) ]
    | None -> expected "a number"
  in
  match c with
  | Text -> (
    match as_str v with
    | Some "" -> [ err path "empty string" ]
    | Some _ -> []
    | None -> expected "a string")
  | One_of allowed -> (
    match as_str v with
    | Some s when List.mem s allowed -> []
    | Some s ->
      let choices = String.concat " | " allowed in
      [ err path (Printf.sprintf "unknown value %S (expected %s)" s choices) ]
    | None -> expected "a string")
  | Above x -> bound (fun f -> f > x) ">" x
  | At_least x -> bound (fun f -> f >= x) ">=" x
  | Map_of c -> (
    match as_obj v with
    | Some [] -> [ err path "empty" ]
    | Some fields -> List.concat_map (fun (k, x) -> check c (path ^ "." ^ k) x) fields
    | None -> expected "an object")

(* Errors of member [key] of object [obj] at [path]. *)
let member_check c path obj key =
  match Option.bind (as_obj obj) (List.assoc_opt key) with
  | Some v -> check c (path ^ "." ^ key) v
  | None -> [ err path (Printf.sprintf "missing key %S" key) ]

(* ------------------------------------------------------------------ *)
(* Tables                                                               *)
(* ------------------------------------------------------------------ *)

type 'm column = { key : string; check : check; get : 'm -> json }

let col key check get = { key; check; get }

type 'm layout =
  | Rows of 'm column list  (** an array with one object per measurement *)
  | Value of check * ('m -> json)  (** a single value, replaced by each add *)

type 'm table = {
  section : string;  (** the document's top-level key *)
  layout : 'm layout;
  mutable fresh : json list;  (** this run's values, newest first *)
}

type sweep = {
  runs : int;
  broken : int;
  seq_s : float;
  par_s : float;
  domains : int;
  speedup : float;
}

let int n = Num (float_of_int n)

(* ------------------------------------------------------------------ *)
(* Sections                                                             *)
(* ------------------------------------------------------------------ *)

let wall_clock =
  {
    section = "wall_clock";
    layout =
      Rows
        [
          col "experiment" (One_of [ "t1-measurement-sweep" ]) (fun _ ->
              Str "t1-measurement-sweep");
          col "runs" (At_least 0.0) (fun m -> int m.runs);
          col "violations" (At_least 0.0) (fun m -> int m.broken);
          col "sequential_s" (Above 0.0) (fun m -> Num m.seq_s);
          col "parallel_s" (Above 0.0) (fun m -> Num m.par_s);
          col "domains" (Above 0.0) (fun m -> int m.domains);
          (* Two decimals: the ratio is a median of paired rounds, so
             digits below that are timer noise, not parallelism (on a
             clamped single-domain pool the honest value is exactly
             1.0). *)
          col "speedup" (Above 0.0) (fun m ->
              Num (Float.round (m.speedup *. 100.0) /. 100.0));
        ];
    fresh = [];
  }

let micro_ns_per_run =
  {
    section = "micro_ns_per_run";
    layout =
      Value
        ( Map_of (Above 0.0),
          fun estimates -> Obj (List.map (fun (name, ns) -> (name, Num ns)) estimates) );
    fresh = [];
  }

type any = T : 'm table -> any

(* Declaration order is document order. *)
let tables = [ T wall_clock; T micro_ns_per_run ]
let section_names = List.map (fun (T t) -> t.section) tables

(* ------------------------------------------------------------------ *)
(* Adding, validating, writing                                          *)
(* ------------------------------------------------------------------ *)

let schema t path v =
  match t.layout with
  | Rows columns -> (
    match as_obj v with
    | Some _ -> List.concat_map (fun c -> member_check c.check path v c.key) columns
    | None -> [ err path "expected an object" ])
  | Value (c, _) -> check c path v

(* A fresh row keeps six significant digits of every non-integral
   number: no measurement here resolves more, and the digits past them
   are noise that would churn the committed document on every run. *)
let rec round_digits = function
  | Num f when Float.is_finite f && not (Float.is_integer f) ->
    Num (float_of_string (Printf.sprintf "%.6g" f))
  | List items -> List (List.map round_digits items)
  | Obj fields -> Obj (List.map (fun (k, v) -> (k, round_digits v)) fields)
  | (Null | Bool _ | Num _ | Str _) as j -> j

let add t m =
  let v, path =
    match t.layout with
    | Rows columns ->
      ( Obj (List.map (fun c -> (c.key, c.get m)) columns),
        Printf.sprintf "$.%s[%d]" t.section (List.length t.fresh) )
    | Value (_, get) -> (get m, "$." ^ t.section)
  in
  let v = round_digits v in
  match schema t path v with
  | [] -> (
    match t.layout with
    | Rows _ -> t.fresh <- v :: t.fresh
    | Value _ -> t.fresh <- [ v ])
  | errors -> invalid_arg (String.concat "; " errors)

(* Sections are optional; a present one is checked whole. *)
let validate_table doc (T t) =
  let path = "$." ^ t.section in
  match Option.bind (as_obj doc) (List.assoc_opt t.section) with
  | None -> []
  | Some v -> (
    match (t.layout, as_list v) with
    | Value _, _ -> schema t path v
    | Rows _, None -> [ err path "expected an array" ]
    | Rows _, Some [] -> [ err path "empty" ]
    | Rows _, Some rows ->
      List.concat (List.mapi (fun i row -> schema t (Printf.sprintf "%s[%d]" path i) row) rows))

let header_keys = [ "generated_by"; "recommended_domain_count" ]

let sections doc =
  List.filter (fun s -> Option.bind (as_obj doc) (List.assoc_opt s) <> None) section_names

let validate doc =
  match as_obj doc with
  | None -> [ err "$" "expected an object" ]
  | Some fields ->
    member_check Text "$" doc "generated_by"
    @ member_check (Above 0.0) "$" doc "recommended_domain_count"
    @ List.concat_map (validate_table doc) tables
    @ (if sections doc <> [] then []
       else
         [ err "$" ("no result section present (" ^ String.concat " / " section_names ^ ")") ])
    (* A key nothing declares is nothing anyone checks: a section
       deleted from the harness must leave the document with it. *)
    @ List.filter_map
        (fun (k, _) ->
          if List.mem k header_keys || List.mem k section_names then None
          else Some (err "$" (Printf.sprintf "undeclared section %S" k)))
        fields

let generated_by = "dune exec bench/main.exe -- micro"

(* The value of every section this run regenerated. *)
let fresh_sections () =
  List.filter_map
    (fun (T t) ->
      match (t.layout, t.fresh) with
      | _, [] -> None
      | Rows _, rows -> Some (t.section, List (List.rev rows))
      | Value _, v :: _ -> Some (t.section, v))
    tables

let write path =
  match fresh_sections () with
  | [] -> []
  | fresh ->
    let existing =
      if not (Sys.file_exists path) then []
      else
        let refuse why =
          failwith (Printf.sprintf "%s: %s; refusing to overwrite it" path why)
        in
        match parse (In_channel.with_open_bin path In_channel.input_all) with
        | Obj fields -> fields
        | Null | Bool _ | Num _ | Str _ | List _ -> refuse "not a JSON object"
        | exception Parse_error msg -> refuse ("JSON parse error " ^ msg)
    in
    let header =
      [
        ("generated_by", Str generated_by);
        ("recommended_domain_count", int (Domain.recommended_domain_count ()));
      ]
    in
    (* Declared sections only, in declared order: this run's, else the
       existing document's; an undeclared key is dropped. *)
    let sections =
      List.filter_map
        (fun s ->
          match List.assoc_opt s fresh with
          | Some v -> Some (s, v)
          | None -> Option.map (fun v -> (s, v)) (List.assoc_opt s existing))
        section_names
    in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (print (Obj (header @ sections)) ^ "\n"));
    List.map fst sections
