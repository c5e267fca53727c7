(* The BENCH_results.json declarations: every gate fires on a document
   that breaks it, the schema reports each defect with its path, the
   writer merges sections without disturbing the ones it did not
   regenerate, and the printer round-trips through the parser. *)

open Results

let num n = Num n
let ms = Obj [ ("mean", num 1.0); ("p50", num 1.0); ("p95", num 2.0); ("p99", num 3.0) ]

(* ------------------------------------------------------------------ *)
(* A minimal document passing every gate, --require-knee included      *)
(* ------------------------------------------------------------------ *)

let run_cols ~protocol =
  [
    ("protocol", Str protocol); ("design_point", Str "W2R2"); ("s", num 5.0);
    ("t", num 1.0); ("writers", num 2.0); ("readers", num 2.0);
    ("ops", num 10.0); ("duration_s", num 0.5);
    ("throughput_ops_per_s", num 20.0); ("write_rounds_per_op", num 2.0);
    ("read_rounds_per_op", num 2.0); ("write_ms", ms); ("read_ms", ms);
    ("atomic", Bool true);
  ]

let scaling_row ~clients ~tput =
  Obj
    [
      ("protocol", Str "LS97 ABD-MW"); ("path", Str "mux"); ("server", Str "reactor");
      ("clients", num clients); ("regime", Str "steady");
      ("writers", num (clients /. 2.0)); ("readers", num (clients /. 2.0));
      ("ops", num 100.0); ("duration_s", num 1.0);
      ("throughput_ops_per_s", num tput); ("write_p50_ms", num 1.0);
      ("read_p50_ms", num 1.0);
    ]

let kv_row ~regime ~groups ~clients ~keys ~dist ~tput =
  Obj
    [
      ("plane", Str "mux"); ("regime", Str regime); ("think_s", num 0.0);
      ("groups", num (float_of_int groups)); ("clients", num (float_of_int clients));
      ("keys", num (float_of_int keys)); ("dist", Str dist); ("mix", Str "A");
      ("ops", num 100.0); ("duration_s", num 1.0);
      ("throughput_ops_per_s", num tput); ("latency_ms", ms); ("read_ms", ms);
      ("write_ms", ms); ("checked_keys", num 50.0); ("atomic", Bool true);
      ("starved", num 0.0); ("late", num 0.0); ("retries", num 0.0);
      ("dropped_replies", num 0.0); ("keys_touched", num 50.0);
      ( "group_ops",
        List (List.init groups (fun _ -> num (100.0 /. float_of_int groups))) );
    ]

let kv_rows =
  List.concat_map
    (fun groups ->
      List.concat_map
        (fun clients ->
          List.concat_map
            (fun keys ->
              List.map
                (fun dist -> kv_row ~regime:"closed" ~groups ~clients ~keys ~dist ~tput:100.0)
                [ "zipfian"; "uniform" ])
            [ 1_000; 100_000 ])
        [ 64; 256 ])
    [ 1; 2; 4 ]
  @ [
      kv_row ~regime:"scaleout" ~groups:1 ~clients:64 ~keys:1_000 ~dist:"zipfian" ~tput:100.0;
      kv_row ~regime:"scaleout" ~groups:4 ~clients:256 ~keys:1_000 ~dist:"zipfian" ~tput:300.0;
    ]

let soak_row ~plane ~ops =
  Obj
    [
      ("plane", Str plane); ("label", Str (plane ^ "-run")); ("ops", num ops);
      ("duration_s", num 10.0); ("throughput_ops_per_s", num (ops /. 10.0));
      ("throughput_nocheck_ops_per_s", num (ops /. 9.0)); ("checked", num ops);
      ("keys", num 100.0); ("peak_window", num 50.0);
      ("checker_ops_per_s", num 1e5); ("batches", num 10.0);
      ("violations", num 0.0); ("atomic", Bool true); ("expected_atomic", Bool true);
    ]

let restart_row ~mode ~atomic ~witness =
  Obj
    [
      ("mode", Str mode); ("transport", Str "mux"); ("atomic", Bool atomic);
      ("read_value", num 0.0); ("witness", witness);
    ]

let profiles = [| "lan"; "wan-3region"; "mixed-1ms-80ms" |]

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
      ("live", List [ Obj (run_cols ~protocol:"LS97 ABD-MW") ]);
      ("live_scaling", List [ scaling_row ~clients:1024.0 ~tput:400.0 ]);
      ("kv_scaling", List kv_rows);
      ( "geo",
        Obj
          [
            ( "rows",
              List
                (List.init 8 (fun i ->
                     Obj
                       (("profile", Str profiles.(i mod 3))
                       :: run_cols ~protocol:(Printf.sprintf "protocol-%d" i)
                       @ [ ("transport", Str "mux") ]))) );
            ( "outage",
              List
                [
                  Obj
                    [
                      ("profile", Str "wan-3region"); ("protocol", Str "LS97 ABD-MW");
                      ("transport", Str "mux"); ("region", Str "ap-south");
                      ("window_s", num 0.25); ("ops", num 30.0); ("duration_s", num 2.0);
                      ("retries", num 2.0); ("unavailable", num 0.0);
                      ("check", Str "live"); ("atomic", Bool true);
                    ];
                ] );
          ] );
      ("soak", List [ soak_row ~plane:"kv" ~ops:1e6; soak_row ~plane:"session" ~ops:600.0 ]);
      ( "chaos",
        Obj
          [
            ("base_seed", num 0.0);
            ( "soak",
              List
                [
                  Obj
                    [
                      ("protocol", Str "LS97 ABD-MW"); ("transport", Str "mux");
                      ("seed", num 0.0); ("drop", num 0.05); ("delay_s", num 0.03);
                      ("duplicate", num 0.1); ("restarted", Bool true); ("ops", num 12.0);
                      ("duration_s", num 1.0); ("write_rounds_per_op", num 2.0);
                      ("read_rounds_per_op", num 2.0); ("retries", num 3.0);
                      ("late", num 1.0); ("unavailable", num 0.0); ("atomic", Bool true);
                      ("expected_atomic", Bool true);
                    ];
                ] );
            ( "restart",
              List
                [
                  restart_row ~mode:"recover" ~atomic:true ~witness:Null;
                  restart_row ~mode:"fresh" ~atomic:false ~witness:(Str "stale read");
                ] );
          ] );
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

let drop_rows path keep = at path (function
  | List items -> List (List.filteri (fun i _ -> keep i) items)
  | Null | Bool _ | Num _ | Str _ | Obj _ -> Alcotest.fail "not an array")

let has_error_at path errors =
  List.exists (fun e -> String.starts_with ~prefix:(path ^ ": ") e) errors

let show errors = String.concat "\n  " ("" :: errors)

(* ------------------------------------------------------------------ *)
(* Gates                                                                *)
(* ------------------------------------------------------------------ *)

(* (name, knee only, mutation, path of the expected error) *)
let gates =
  let sc = [ K "live_scaling"; I 0 ] and kv = [ K "kv_scaling"; I 0 ] in
  let soak i = [ K "soak"; I i ] and restart i = [ K "chaos"; K "restart"; I i ] in
  let geo_row i = [ K "geo"; K "rows"; I i ] in
  [
    ( "live_scaling: a steady row at C >= 1024", false,
      (fun d -> set sc "clients" (num 512.0) d |> set sc "writers" (num 256.0) |> set sc "readers" (num 256.0)),
      "$.live_scaling" );
    ("live_scaling: clients = writers + readers", false, set sc "clients" (num 2048.0), "$.live_scaling[0].clients");
    ("live_scaling: C=16 knee floor", true, set sc "throughput_ops_per_s" (num 100.0), "$.live_scaling");
    ("kv_scaling: atomic rows", false, set kv "atomic" (Bool false), "$.kv_scaling[0]");
    ( "kv_scaling: group_ops length", false,
      set kv "group_ops" (List [ num 50.0; num 50.0 ]), "$.kv_scaling[0].group_ops" );
    ("kv_scaling: group_ops sum", false, set kv "group_ops" (List [ num 99.0 ]), "$.kv_scaling[0].group_ops");
    ("kv_scaling: grid completeness", true, drop_rows [ K "kv_scaling" ] (fun i -> i <> 5), "$.kv_scaling");
    ( "kv_scaling: 4-group scale-out beats 1-group", true,
      set [ K "kv_scaling"; I 25 ] "throughput_ops_per_s" (num 50.0), "$.kv_scaling" );
    ("soak: both planes", false, drop_rows [ K "soak" ] (fun i -> i = 0), "$.soak");
    ("soak: checked >= ops", false, set (soak 1) "checked" (num 599.0), "$.soak[1]");
    ("soak: atomic vs violations", false, set (soak 0) "violations" (num 1.0), "$.soak[0]");
    ( "soak: expected_atomic", false,
      (fun d -> set (soak 0) "atomic" (Bool false) d |> set (soak 0) "violations" (num 1.0)), "$.soak[0]" );
    ("soak: 1e6-op headline", true, set (soak 0) "peak_window" (num 200_000.0), "$.soak");
    ( "chaos: expected-atomic soak rows", false,
      set [ K "chaos"; K "soak"; I 0 ] "atomic" (Bool false), "$.chaos.soak[0]" );
    ("chaos: recover atomic", false, set (restart 0) "atomic" (Bool false), "$.chaos.restart[0]");
    ("chaos: fresh non-atomic", false, set (restart 1) "atomic" (Bool true), "$.chaos.restart[1]");
    ("chaos: fresh witness", false, set (restart 1) "witness" Null, "$.chaos.restart[1].witness");
    ( "geo: 3 profiles", false,
      (fun d -> set (geo_row 2) "profile" (Str "lan") d |> set (geo_row 5) "profile" (Str "lan")),
      "$.geo.rows" );
    ("geo: 8 protocols", false, set (geo_row 7) "protocol" (Str "protocol-0"), "$.geo.rows");
    ("geo: atomic rows", false, set (geo_row 3) "atomic" (Bool false), "$.geo.rows[3]");
    ("geo: outage checked live", false, set [ K "geo"; K "outage"; I 0 ] "check" (Str "batch"), "$.geo.outage[0].check");
    ("geo: outage atomic", false, set [ K "geo"; K "outage"; I 0 ] "atomic" (Bool false), "$.geo.outage[0]");
    ("geo required under --require-knee", true, remove [] "geo", "$");
    ( "at least one section", false,
      (fun d -> List.fold_left (fun d s -> remove [] s d) d (sections valid)), "$" );
    ( "kv_scaling: every touched key checked", false,
      set kv "checked_keys" (num 49.0), "$.kv_scaling[0].checked_keys" );
  ]

let test_valid () =
  List.iter
    (fun require_knee ->
      match validate ~require_knee valid with
      | [] -> ()
      | errors -> Alcotest.failf "valid document rejected:%s" (show errors))
    [ false; true ]

let gate_case (name, knee_only, mutate, path) =
  Alcotest.test_case name `Quick (fun () ->
      let doc = mutate valid in
      let knee = validate ~require_knee:true doc in
      if not (has_error_at path knee) then
        Alcotest.failf "with --require-knee: no error at %s:%s" path (show knee);
      let plain = validate ~require_knee:false doc in
      if knee_only then begin
        if plain <> [] then Alcotest.failf "knee-only gate fired without the flag:%s" (show plain)
      end
      else if not (has_error_at path plain) then
        Alcotest.failf "without --require-knee: no error at %s:%s" path (show plain))

(* ------------------------------------------------------------------ *)
(* Schema                                                               *)
(* ------------------------------------------------------------------ *)

let expect_error doc expected =
  let errors = validate ~require_knee:false doc in
  if not (List.mem expected errors) then
    Alcotest.failf "expected %S among:%s" expected (show errors)

let test_missing_key () =
  expect_error (remove [ K "live"; I 0 ] "ops" valid) "$.live[0]: missing key \"ops\""

let test_wrong_type () =
  expect_error (set [ K "live"; I 0 ] "atomic" (Str "yes") valid) "$.live[0].atomic: expected a bool"

let test_empty_string () =
  expect_error (set [ K "live"; I 0 ] "protocol" (Str "") valid) "$.live[0].protocol: empty string"

let test_negative_counter () =
  expect_error
    (set [ K "kv_scaling"; I 0 ] "retries" (num (-1.0)) valid)
    "$.kv_scaling[0].retries: must be >= 0"

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
  (* Y and Z written out of declared order, with a stale copy of X. *)
  let existing =
    Obj [ section "chaos"; ("micro_ns_per_run", Obj [ ("stale", num 1.0) ]); section "live" ]
  in
  with_file (print existing) (fun path ->
      let written = write path in
      Alcotest.(check (list string)) "sections reported"
        [ "micro_ns_per_run"; "live"; "chaos" ] written;
      let doc = parse (read path) in
      Alcotest.(check (list string)) "document order"
        [ "generated_by"; "recommended_domain_count"; "micro_ns_per_run"; "live"; "chaos" ]
        (keys doc);
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " kept value-equal") true (member k doc = member k valid))
        [ "live"; "chaos" ];
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
        Alcotest.test_case "minimal valid document" `Quick test_valid
        :: List.map gate_case gates );
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
