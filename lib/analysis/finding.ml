type severity = Error | Warning

let severity_to_string = function Error -> "error" | Warning -> "warning"

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
}

let of_loc ~rule ~severity ~file (loc : Location.t) message =
  let start = loc.Location.loc_start in
  {
    rule;
    severity;
    file;
    line = start.Lexing.pos_lnum;
    col = start.Lexing.pos_cnum - start.Lexing.pos_bol + 1;
    message;
  }

let compare a b =
  compare
    (a.file, a.line, a.col, a.rule, a.message)
    (b.file, b.line, b.col, b.rule, b.message)

let to_string f =
  Printf.sprintf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message

(* One finding object per line — the machine-readable form consumed by
   annotation tooling.  Keys are stable; strings are JSON-escaped. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json f =
  Printf.sprintf
    "{\"rule\":\"%s\",\"severity\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\"}"
    (json_escape f.rule)
    (severity_to_string f.severity)
    (json_escape f.file) f.line f.col (json_escape f.message)
