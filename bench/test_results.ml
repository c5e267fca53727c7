(* The BENCH_results.json declarations: the validator accepts a
   conforming document and reports each defect with its path, an
   undeclared section is an error, the writer merges sections without
   disturbing the ones it did not regenerate, and the printer
   round-trips through the parser. *)

open Results

let num n = Num n

(* ------------------------------------------------------------------ *)
(* A minimal valid document                                             *)
(* ------------------------------------------------------------------ *)

let valid =
  Obj
    [
      ("generated_by", Str "test"); ("recommended_domain_count", num 1.0);
      ( "wall_clock",
        List
          [
            Obj
              [
                ("experiment", Str "t1-measurement-sweep"); ("runs", num 10.0);
                ("violations", num 1.0); ("sequential_s", num 1.5);
                ("parallel_s", num 1.0); ("domains", num 2.0); ("speedup", num 1.5);
              ];
          ] );
      ("micro_ns_per_run", Obj [ ("f2-streaming-checker", num 123.5) ]);
    ]

(* ------------------------------------------------------------------ *)
(* Document surgery                                                     *)
(* ------------------------------------------------------------------ *)

type step = K of string | I of int

(* [at path f doc] replaces the value at [path] by [f] of it. *)
let rec at path f doc =
  match (path, doc) with
  | [], v -> f v
  | K k :: rest, Obj fields ->
    Obj (List.map (fun (k', v) -> if k' = k then (k', at rest f v) else (k', v)) fields)
  | I i :: rest, List items -> List (List.mapi (fun j v -> if j = i then at rest f v else v) items)
  | (K _ | I _) :: _, (Null | Bool _ | Num _ | Str _ | List _ | Obj _) ->
    Alcotest.fail "bad surgery path"

let set path key v = at path (function
  | Obj fields -> Obj (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fields)
  | Null | Bool _ | Num _ | Str _ | List _ -> Alcotest.fail "not an object")

let remove path key = at path (function
  | Obj fields -> Obj (List.filter (fun (k, _) -> k <> key) fields)
  | Null | Bool _ | Num _ | Str _ | List _ -> Alcotest.fail "not an object")

let has_error_at path errors =
  List.exists (fun e -> String.starts_with ~prefix:(path ^ ": ") e) errors

let show errors = String.concat "\n  " ("" :: errors)

(* ------------------------------------------------------------------ *)
(* Document-level gates                                                 *)
(* ------------------------------------------------------------------ *)

let test_valid () =
  match validate valid with
  | [] -> ()
  | errors -> Alcotest.failf "valid document rejected:%s" (show errors)

let test_at_least_one_section () =
  let doc = List.fold_left (fun d s -> remove [] s d) valid (sections valid) in
  if not (has_error_at "$" (validate doc)) then
    Alcotest.failf "no error at $:%s" (show (validate doc))

let expect_error doc expected =
  let errors = validate doc in
  if not (List.mem expected errors) then
    Alcotest.failf "expected %S among:%s" expected (show errors)

(* A section the harness no longer declares (one it used to write, or
   one nobody ever did) is reported, not carried along unchecked. *)
let test_undeclared_section () =
  List.iter
    (fun key ->
      let doc =
        at [] (function
          | Obj fields -> Obj (fields @ [ (key, List []) ])
          | Null | Bool _ | Num _ | Str _ | List _ -> Alcotest.fail "not an object")
          valid
      in
      expect_error doc (Printf.sprintf "$: undeclared section %S" key))
    [ "live"; "geo"; "soak"; "extra" ]

(* ------------------------------------------------------------------ *)
(* Schema                                                               *)
(* ------------------------------------------------------------------ *)

let wall = [ K "wall_clock"; I 0 ]

let test_missing_key () =
  expect_error (remove wall "runs" valid) "$.wall_clock[0]: missing key \"runs\""

let test_wrong_type () =
  expect_error
    (set [] "micro_ns_per_run" (Obj [ ("f2-streaming-checker", Str "fast") ]) valid)
    "$.micro_ns_per_run.f2-streaming-checker: expected a number"

(* Neither section has a free-text column; the header's
   [generated_by] is the document's one. *)
let test_empty_string () =
  expect_error (set [] "generated_by" (Str "") valid) "$.generated_by: empty string"

let test_negative_counter () =
  expect_error (set wall "violations" (num (-1.0)) valid) "$.wall_clock[0].violations: must be >= 0"

let sweep =
  { runs = 10; broken = 0; seq_s = 1.0; par_s = 1.0; domains = 1; speedup = 1.0 }

let test_add_raises () =
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: Results.add accepted a bad row" what
    | exception Invalid_argument _ -> ()
  in
  raises "negative duration" (fun () ->
      add wall_clock { sweep with seq_s = -1.0 });
  raises "zero domains" (fun () -> add wall_clock { sweep with domains = 0 });
  raises "non-positive estimate" (fun () -> add micro_ns_per_run [ ("x", 0.0) ]);
  raises "no estimates" (fun () -> add micro_ns_per_run [])

(* ------------------------------------------------------------------ *)
(* Merge                                                                *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Num _ | Str _ | List _ -> None

let keys = function
  | Obj fields -> List.map fst fields
  | Null | Bool _ | Num _ | Str _ | List _ -> []

let with_file contents f =
  let path = Filename.temp_file "bench_results" ".json" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read path = In_channel.with_open_bin path In_channel.input_all
let section key = (key, Option.get (member key valid))

let test_merge_keeps_others () =
  add micro_ns_per_run [ ("fresh", 2.5) ];
  (* Written out of declared order: a stale copy of the regenerated
     section ahead of the one this run leaves alone, and a section
     nothing declares, which the writer drops. *)
  let existing =
    Obj
      [
        ("micro_ns_per_run", Obj [ ("stale", num 1.0) ]);
        ("live", List [ Obj [ ("ops", num 1.0) ] ]);
        section "wall_clock";
      ]
  in
  with_file (print existing) (fun path ->
      let written = write path in
      Alcotest.(check (list string)) "sections reported"
        [ "wall_clock"; "micro_ns_per_run" ] written;
      let doc = parse (read path) in
      Alcotest.(check (list string)) "document order"
        [ "generated_by"; "recommended_domain_count"; "wall_clock"; "micro_ns_per_run" ]
        (keys doc);
      Alcotest.(check bool) "wall_clock kept value-equal" true
        (member "wall_clock" doc = member "wall_clock" valid);
      Alcotest.(check bool) "regenerated section replaced" true
        (member "micro_ns_per_run" doc = Some (Obj [ ("fresh", num 2.5) ])))

let test_merge_refuses_garbage () =
  add micro_ns_per_run [ ("fresh", 2.5) ];
  List.iter
    (fun contents ->
      with_file contents (fun path ->
          (match write path with
          | _ -> Alcotest.failf "wrote over %S" contents
          | exception Failure _ -> ());
          Alcotest.(check string) "left byte-identical" contents (read path)))
    [ "{ \"live\": [ {\"ops\": 1,} ] }"; "[]"; "" ]

let test_add_rounds () =
  add micro_ns_per_run [ ("est", 0.13481273600064014); ("whole", 3.0) ];
  with_file "{}" (fun path ->
      ignore (write path);
      let lines = List.map String.trim (String.split_on_char '\n' (read path)) in
      Alcotest.(check string) "0.13481273600064014 written as 0.134813"
        "\"micro_ns_per_run\": { \"est\": 0.134813, \"whole\": 3 }"
        (List.find (String.starts_with ~prefix:"\"micro_ns_per_run\"") lines))

(* ------------------------------------------------------------------ *)
(* Round trip                                                           *)
(* ------------------------------------------------------------------ *)

let gen_json =
  let open QCheck.Gen in
  let chr =
    frequency
      [
        (4, printable);
        (1, oneofl [ '"'; '\\'; '/'; '\n'; '\t'; '\r' ]);
        (1, map Char.chr (int_range 0 31));
        (1, map Char.chr (int_range 128 255));
      ]
  in
  let str = string_size ~gen:chr (int_range 0 10) in
  let finite f = if Float.is_finite f then f else 0.1 in
  let number =
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        map (fun (a, b) -> float_of_int a /. float_of_int (b + 1)) (pair small_signed_int small_nat);
        map finite float;
      ]
  in
  let scalar =
    oneof
      [
        return Null; map (fun b -> Bool b) bool; map (fun f -> Num f) number;
        map (fun s -> Str s) str;
      ]
  in
  sized
    (fix (fun self n ->
         if n <= 1 then scalar
         else
           frequency
             [
               (1, scalar);
               (1, map (fun l -> List l) (list_size (int_range 0 5) (self (n / 3))));
               (1, map (fun l -> Obj l) (list_size (int_range 0 5) (pair str (self (n / 3)))));
             ]))

let round_trip =
  QCheck.Test.make ~name:"parse (print j) = j" ~count:500
    (QCheck.make ~print:print gen_json)
    (fun j -> parse (print j) = j)

let () =
  Alcotest.run "results"
    [
      ( "gates",
        [
          Alcotest.test_case "minimal valid document" `Quick test_valid;
          Alcotest.test_case "at least one section" `Quick test_at_least_one_section;
          Alcotest.test_case "an undeclared section is an error" `Quick
            test_undeclared_section;
        ] );
      ( "schema",
        [
          Alcotest.test_case "missing key" `Quick test_missing_key;
          Alcotest.test_case "wrong type" `Quick test_wrong_type;
          Alcotest.test_case "empty string" `Quick test_empty_string;
          Alcotest.test_case "negative counter" `Quick test_negative_counter;
          Alcotest.test_case "add rejects a bad row" `Quick test_add_raises;
        ] );
      ( "merge",
        [
          Alcotest.test_case "keeps other sections, declared order" `Quick
            test_merge_keeps_others;
          Alcotest.test_case "unparsable file left untouched" `Quick
            test_merge_refuses_garbage;
          Alcotest.test_case "a fresh row keeps 6 significant digits" `Quick
            test_add_rounds;
        ] );
      ("round trip", [ QCheck_alcotest.to_alcotest round_trip ]);
    ]
