type 'a file = { path : string; ast : 'a }
type t = Parsetree.structure file
type intf = Parsetree.signature file

exception Parse_error of string

let parse parser ~path src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  match parser lexbuf with
  | ast -> { path; ast }
  | exception exn ->
    let msg =
      match Location.error_of_exn exn with
      | Some (`Ok report) -> Format.asprintf "%a" Location.print_report report
      | Some `Already_displayed | None ->
        Printf.sprintf "%s: unparseable: %s" path (Printexc.to_string exn)
    in
    raise (Parse_error msg)

let parse_string ~path src = parse Parse.implementation ~path src
let parse_interface_string ~path src = parse Parse.interface ~path src

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path = parse_string ~path (read path)
let parse_interface_file path = parse_interface_string ~path (read path)

let skip_dir entry =
  entry = "_build" || (String.length entry > 0 && entry.[0] = '.')

let rec walk ext acc path =
  if Sys.file_exists path then
    if Sys.is_directory path then
      Array.fold_left
        (fun acc entry ->
          if skip_dir entry then acc
          else walk ext acc (Filename.concat path entry))
        acc (Sys.readdir path)
    else if Filename.check_suffix path ext then path :: acc
    else acc
  else acc

let find_files ~ext ~roots =
  List.sort_uniq String.compare (List.fold_left (walk ext) [] roots)
