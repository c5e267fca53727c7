(* Validation of BENCH_results.json against its declaration in
   results.ml.

     dune exec bench/validate_results.exe [-- PATH]

   CI runs this after every smoke bench and on the committed file.  A
   file passes when it is byte for byte what the bench prints for the
   value it holds (Results.of_string) and that value meets every bound
   (Results.errors).  Exit status 0 on a conforming file, 1 with one
   diagnostic per error otherwise (and on a bad command line). *)

let validate path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
    Printf.eprintf "cannot read %s: %s\n" path msg;
    1
  | contents -> (
    match Result.map Results.errors (Results.of_string contents) with
    | Ok [] ->
      Printf.printf "%s: OK\n" path;
      0
    | Ok errors ->
      List.iter (Printf.eprintf "%s: %s\n" path) errors;
      1
    | Error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      1)

(* Stdlib [Arg]: the tool takes no option, so any argument that looks
   like one (a mistyped path, a flag from an older validator) fails
   instead of being read as a PATH. *)
let () =
  let paths = ref [] in
  let specs = [] in
  let usage = "validate_results [PATH]" in
  match Arg.parse_argv Sys.argv specs (fun p -> paths := p :: !paths) usage with
  | exception Arg.Bad msg ->
    prerr_string msg;
    exit 1
  | exception Arg.Help msg ->
    print_string msg;
    exit 0
  | () -> (
    match !paths with
    | [] -> exit (validate "BENCH_results.json")
    | [ path ] -> exit (validate path)
    | _ :: _ :: _ ->
      prerr_string "validate_results: more than one PATH\n";
      prerr_string (Arg.usage_string specs usage);
      exit 1)
