(* The BENCH_results.json declaration: the validator's rule (the file
   reads back through [of_string] and its value has no [errors])
   accepts a conforming file and the committed one and rejects each
   defect, [write] refuses a value that breaks a bound, and [of_string]
   reads back whatever [to_string] prints. *)

open Results

(* ------------------------------------------------------------------ *)
(* A minimal valid file                                                 *)
(* ------------------------------------------------------------------ *)

let value =
  {
    recommended_domains = 1;
    wall_clock =
      { runs = 10; broken = 1; seq_s = 1.5; par_s = 1.0; domains = 2; speedup = 1.5 };
    micro_ns_per_run = [ ("f2-streaming-checker", 123.5) ];
  }

let valid = to_string value

(* What validate_results.exe reports for a file's contents. *)
let validate contents =
  match of_string contents with
  | Ok t -> errors t
  | Error msg -> [ msg ]

let show errors = String.concat "\n  " ("" :: errors)

(* [replace sub by s] is [s] with its first [sub] replaced by [by]. *)
let replace sub by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "%S not in the file" sub
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let rejected what contents =
  if validate contents = [] then Alcotest.failf "%s: accepted\n%s" what contents

let expect_error expected errors =
  if not (List.mem expected errors) then
    Alcotest.failf "expected %S among:%s" expected (show errors)

(* ------------------------------------------------------------------ *)
(* File-level gates                                                     *)
(* ------------------------------------------------------------------ *)

let test_valid () =
  match validate valid with
  | [] -> ()
  | errors -> Alcotest.failf "valid file rejected:%s" (show errors)

let test_at_least_one_section () =
  rejected "header only"
    "{\n\
    \  \"generated_by\": \"dune exec bench/main.exe -- micro\",\n\
    \  \"recommended_domain_count\": 1\n\
     }\n"

(* A section the harness no longer writes (one it used to, or one
   nobody ever did) is rejected, not carried along unchecked. *)
let test_undeclared_section () =
  List.iter
    (fun key -> rejected key (replace "\n  }\n}\n" (Printf.sprintf "\n  },\n  %S: []\n}\n" key) valid))
    [ "live"; "geo"; "soak"; "extra" ]

let test_committed () =
  let committed = In_channel.with_open_bin "../BENCH_results.json" In_channel.input_all in
  match of_string committed with
  | Error msg -> Alcotest.failf "the committed file does not read back: %s" msg
  | Ok t ->
    Alcotest.(check string) "re-printed byte for byte" committed (to_string t);
    Alcotest.(check (list string)) "no errors" [] (errors t)

(* A reformatted file holds the same JSON, but not the bytes the bench
   writes. *)
let test_reformatted () =
  rejected "tab indent" (replace "  \"runs\"" "\t\"runs\"" valid);
  rejected "one line" (String.concat " " (String.split_on_char '\n' valid));
  rejected "trailing zero" (replace "123.5" "123.50" valid);
  rejected "no final newline" (String.sub valid 0 (String.length valid - 1));
  rejected "trailing bytes" (valid ^ "{}\n")

(* ------------------------------------------------------------------ *)
(* Schema                                                               *)
(* ------------------------------------------------------------------ *)

let test_missing_key () = rejected "no runs" (replace "      \"runs\": 10,\n" "" valid)

let test_wrong_type () =
  rejected "a string estimate" (replace "123.5" "\"fast\"" valid);
  rejected "a fractional count" (replace "\"runs\": 10" "\"runs\": 10.5" valid)

(* The header's [generated_by] names the command that writes the file. *)
let test_empty_string () =
  let line = "\"generated_by\": \"dune exec bench/main.exe -- micro\"" in
  rejected "empty" (replace line "\"generated_by\": \"\"" valid);
  rejected "another command" (replace line "\"generated_by\": \"by hand\"" valid)

let test_negative_counter () =
  expect_error "wall_clock.violations: must be >= 0, got -1"
    (validate (replace "\"violations\": 1," "\"violations\": -1," valid))

let test_zero_domains () =
  expect_error "wall_clock.domains: must be > 0 and finite, got 0"
    (validate (replace "\"domains\": 2," "\"domains\": 0," valid));
  expect_error "recommended_domain_count: must be > 0 and finite, got 0"
    (validate (replace "\"recommended_domain_count\": 1," "\"recommended_domain_count\": 0," valid))

let test_bad_estimate () =
  List.iter
    (fun (text, shown) ->
      expect_error ("micro_ns_per_run.f2-streaming-checker: must be > 0 and finite, got " ^ shown)
        (validate (replace "123.5" text valid)))
    [ ("0", "0"); ("-1.5", "-1.5") ];
  rejected "a NaN in the file" (replace "123.5" "nan" valid);
  expect_error "micro_ns_per_run.x: must be > 0 and finite, got nan"
    (errors { value with micro_ns_per_run = [ ("x", Float.nan) ] })

let test_empty_micro () =
  rejected "an empty map in the file"
    (replace "\n    \"f2-streaming-checker\": 123.5\n  }" "}" valid);
  expect_error "micro_ns_per_run: empty" (errors { value with micro_ns_per_run = [] })

let with_file contents f =
  let path = Filename.temp_file "bench_results" ".json" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read path = In_channel.with_open_bin path In_channel.input_all

let test_write_refuses () =
  let sweep = value.wall_clock in
  List.iter
    (fun (what, t) ->
      with_file "untouched" (fun path ->
          (match write path t with
          | () -> Alcotest.failf "%s: Results.write accepted a bad value" what
          | exception Invalid_argument _ -> ());
          Alcotest.(check string) (what ^ ": file untouched") "untouched" (read path)))
    [
      ("negative duration", { value with wall_clock = { sweep with seq_s = -1.0 } });
      ("zero domains", { value with wall_clock = { sweep with domains = 0 } });
      ("speedup rounds to 0", { value with wall_clock = { sweep with speedup = 0.004 } });
      ("non-positive estimate", { value with micro_ns_per_run = [ ("x", 0.0) ] });
      ("no estimates", { value with micro_ns_per_run = [] });
      ("a name needing escapes", { value with micro_ns_per_run = [ ("a\"b", 1.0) ] });
    ]

(* ------------------------------------------------------------------ *)
(* Writing                                                              *)
(* ------------------------------------------------------------------ *)

let test_write_rounds () =
  with_file "" (fun path ->
      write path
        {
          value with
          wall_clock = { value.wall_clock with seq_s = 0.8554541234; speedup = 1.8149 };
          micro_ns_per_run = [ ("est", 0.13481273600064014); ("whole", 6759240.0) ];
        };
      let lines = List.map String.trim (String.split_on_char '\n' (read path)) in
      List.iter
        (fun line ->
          if not (List.mem line lines) then Alcotest.failf "no line %S in\n%s" line (read path))
        [
          "\"sequential_s\": 0.855454,"; "\"speedup\": 1.81"; "\"est\": 0.134813,";
          "\"whole\": 6759240";
        ])

(* ------------------------------------------------------------------ *)
(* Round trip                                                           *)
(* ------------------------------------------------------------------ *)

(* Values [to_string] prints exactly: finite numbers of at most six
   significant digits, a speedup of two decimals, bare names. *)
let gen_t =
  let open QCheck.Gen in
  let six x = float_of_string (Printf.sprintf "%.6g" x) in
  let number =
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        map six (float_range (-1e3) 1e3);
        map (fun f -> if Float.is_finite f then six f else 0.5) float;
      ]
  in
  let name =
    string_size ~gen:(map (function '"' | '\\' -> '_' | c -> c) (char_range ' ' '~')) (int_range 1 12)
  in
  let* recommended_domains = small_signed_int in
  let* runs = small_signed_int and* broken = small_signed_int and* domains = small_signed_int in
  let* seq_s = number and* par_s = number in
  let* speedup = map (fun k -> float_of_int k /. 100.0) (int_range (-999_999) 999_999) in
  let+ micro_ns_per_run = list_size (int_range 1 5) (pair name number) in
  {
    recommended_domains;
    wall_clock = { runs; broken; seq_s; par_s; domains; speedup };
    micro_ns_per_run;
  }

let round_trip =
  QCheck.Test.make ~name:"of_string (to_string t) = Ok t" ~count:500
    (QCheck.make ~print:to_string gen_t)
    (fun t -> of_string (to_string t) = Ok t)

let () =
  Alcotest.run "results"
    [
      ( "gates",
        [
          Alcotest.test_case "minimal valid document" `Quick test_valid;
          Alcotest.test_case "at least one section" `Quick test_at_least_one_section;
          Alcotest.test_case "an undeclared section is an error" `Quick
            test_undeclared_section;
          Alcotest.test_case "the committed file re-prints byte for byte" `Quick
            test_committed;
          Alcotest.test_case "a reformatted file is rejected" `Quick test_reformatted;
        ] );
      ( "schema",
        [
          Alcotest.test_case "missing key" `Quick test_missing_key;
          Alcotest.test_case "wrong type" `Quick test_wrong_type;
          Alcotest.test_case "empty string" `Quick test_empty_string;
          Alcotest.test_case "negative counter" `Quick test_negative_counter;
          Alcotest.test_case "zero domains" `Quick test_zero_domains;
          Alcotest.test_case "a non-positive or NaN estimate" `Quick test_bad_estimate;
          Alcotest.test_case "an empty micro map" `Quick test_empty_micro;
          Alcotest.test_case "write refuses a bad value" `Quick test_write_refuses;
        ] );
      ( "write",
        [
          Alcotest.test_case "values keep six significant digits" `Quick
            test_write_rounds;
        ] );
      ("round trip", [ QCheck_alcotest.to_alcotest round_trip ]);
    ]
