type entry = {
  rule : string;
  file : string;
  line : int;
  col : int;
  justification : string;
}

let parse_line lineno raw =
  let s = String.trim raw in
  if s = "" || s.[0] = '#' then Ok None
  else
    match String.index_opt s ' ' with
    | None -> Error (Printf.sprintf "line %d: want `RULE file:line:col why`" lineno)
    | Some i -> (
      let rule = String.sub s 0 i in
      let rest = String.trim (String.sub s i (String.length s - i)) in
      let locspec, justification =
        match String.index_opt rest ' ' with
        | None -> (rest, "")
        | Some j ->
          ( String.sub rest 0 j,
            String.trim (String.sub rest j (String.length rest - j)) )
      in
      if justification = "" then
        Error
          (Printf.sprintf
             "line %d: suppression of %s has no justification" lineno rule)
      else
        (* [file:line:col]: split the last two ':'-separated integer
           components off the path.  Paths never end in `:digits`, so
           the parse is unambiguous. *)
        let int_suffix spec =
          match String.rindex_opt spec ':' with
          | None -> None
          | Some k -> (
            match
              int_of_string_opt
                (String.sub spec (k + 1) (String.length spec - k - 1))
            with
            | Some n when n >= 0 -> Some (String.sub spec 0 k, n)
            | Some _ | None -> None)
        in
        let parsed =
          Option.bind (int_suffix locspec) (fun (prefix, col) ->
              Option.map
                (fun (file, line) -> (file, line, col))
                (int_suffix prefix))
        in
        match parsed with
        | Some (file, line, col) ->
          Ok (Some { rule; file; line; col; justification })
        | None ->
          Error
            (Printf.sprintf "line %d: want file:line:col, got %S" lineno
               locspec))

let load path =
  if not (Sys.file_exists path) then Ok []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go lineno acc =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | raw -> (
            match parse_line lineno raw with
            | Ok None -> go (lineno + 1) acc
            | Ok (Some e) -> go (lineno + 1) (e :: acc)
            | Error _ as e -> e)
        in
        go 1 [])
  end

let matches entry (f : Finding.t) =
  entry.rule = f.Finding.rule && entry.line = f.Finding.line
  && entry.col = f.Finding.col
  && (entry.file = f.Finding.file
     || Rules.path_matches ~suffix:entry.file f.Finding.file)

let apply ~entries findings =
  let used = Hashtbl.create 8 in
  let fresh =
    List.filter
      (fun f ->
        match List.find_opt (fun e -> matches e f) entries with
        | Some e ->
          Hashtbl.replace used e ();
          false
        | None -> true)
      findings
  in
  let stale = List.filter (fun e -> not (Hashtbl.mem used e)) entries in
  (fresh, stale)
