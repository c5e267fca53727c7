(* Schema validation for BENCH_results.json.

     dune exec bench/validate_results.exe [-- [--require-knee] path]

   The bench harness hand-rolls its JSON writer, so CI runs this after
   every smoke bench: parse the document with a strict minimal JSON
   reader (no dependencies), then assert the section shapes — required
   keys present with the right types, counters non-negative, durations
   positive.  The live_scaling section also carries semantics: every
   protocol swept must include a steady row at >= 1024 total
   clients (the reactor server's headline capability), and under
   [--require-knee] — used against the committed full-budget document,
   not the tiny-op CI smoke regeneration — the best steady throughput
   at >= 256 clients must beat the thread-per-connection server's
   recorded C=16 peak, per protocol.  Exit status 0 on a
   conforming file, 1 with a diagnostic otherwise. *)

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
(* Schema checks                                                        *)
(* ------------------------------------------------------------------ *)

let errors = ref []

let err path msg = errors := Printf.sprintf "%s: %s" path msg :: !errors

let field obj path key =
  match obj with
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Num _ | Str _ | List _ ->
    err path "expected an object";
    None

let want_string obj path key =
  match field obj path key with
  | Some (Str s) ->
    if s = "" then err (path ^ "." ^ key) "empty string";
    Some s
  | Some (Null | Bool _ | Num _ | List _ | Obj _) ->
    err (path ^ "." ^ key) "expected a string";
    None
  | None ->
    err path (Printf.sprintf "missing key %S" key);
    None

let want_number obj path key =
  match field obj path key with
  | Some (Num f) -> Some f
  | Some (Null | Bool _ | Str _ | List _ | Obj _) ->
    err (path ^ "." ^ key) "expected a number";
    None
  | None ->
    err path (Printf.sprintf "missing key %S" key);
    None

let want_bool obj path key =
  match field obj path key with
  | Some (Bool _) -> ()
  | Some (Null | Num _ | Str _ | List _ | Obj _) ->
    err (path ^ "." ^ key) "expected a bool"
  | None -> err path (Printf.sprintf "missing key %S" key)

let positive obj path key =
  match want_number obj path key with
  | Some f when f > 0.0 -> ()
  | Some _ -> err (path ^ "." ^ key) "must be > 0"
  | None -> ()

let non_negative obj path key =
  match want_number obj path key with
  | Some f when f >= 0.0 -> ()
  | Some _ -> err (path ^ "." ^ key) "must be >= 0"
  | None -> ()

let check_ms_obj obj path key =
  match field obj path key with
  | Some (Obj _ as ms) ->
    List.iter (fun k -> non_negative ms (path ^ "." ^ key) k)
      [ "mean"; "p50"; "p95"; "p99" ]
  | Some (Null | Bool _ | Num _ | Str _ | List _) ->
    err (path ^ "." ^ key) "expected an object"
  | None -> err path (Printf.sprintf "missing key %S" key)

(* Live rows name the client data plane they ran on; the shared mux is
   the only one. *)
let want_mux obj path key =
  match want_string obj path key with
  | Some "mux" | None -> ()
  | Some other ->
    err (path ^ "." ^ key) (Printf.sprintf "unknown %s %S" key other)

let check_wall_clock path = function
  | List entries ->
    if entries = [] then err path "empty";
    List.iteri
      (fun i e ->
        let p = Printf.sprintf "%s[%d]" path i in
        ignore (want_string e p "experiment");
        non_negative e p "runs";
        non_negative e p "violations";
        positive e p "sequential_s";
        positive e p "parallel_s";
        positive e p "domains";
        positive e p "speedup")
      entries
  | Null | Bool _ | Num _ | Str _ | Obj _ -> err path "expected an array"

let check_micro path = function
  | Obj fields ->
    if fields = [] then err path "empty";
    List.iter
      (fun (k, v) ->
        match v with
        | Num f when f > 0.0 -> ()
        | Num _ -> err (path ^ "." ^ k) "must be > 0"
        | Null | Bool _ | Str _ | List _ | Obj _ ->
          err (path ^ "." ^ k) "expected a number")
      fields
  | Null | Bool _ | Num _ | Str _ | List _ -> err path "expected an object"

let check_live path = function
  | List entries ->
    if entries = [] then err path "empty";
    List.iteri
      (fun i e ->
        let p = Printf.sprintf "%s[%d]" path i in
        ignore (want_string e p "protocol");
        ignore (want_string e p "design_point");
        positive e p "s";
        non_negative e p "t";
        non_negative e p "writers";
        positive e p "readers";
        positive e p "ops";
        positive e p "duration_s";
        positive e p "throughput_ops_per_s";
        positive e p "write_rounds_per_op";
        positive e p "read_rounds_per_op";
        check_ms_obj e p "write_ms";
        check_ms_obj e p "read_ms";
        want_bool e p "atomic")
      entries
  | Null | Bool _ | Num _ | Str _ | Obj _ -> err path "expected an array"

(* The thread-per-connection server's sustained throughput at its
   contended peak (C=16 in old units: 16 writers + 16 readers = 32
   client threads), per protocol on the mux plane, measured on this
   repo's pre-reactor tree at the default op budget.  These are the
   knee floors for [--require-knee]: the reactor must hold at C >= 256
   steady clients at least the throughput the old server managed at 32
   — i.e. the scaling knee moved out by an order of magnitude, it did
   not just shift shape. *)
let threaded_c16_floor =
  [
    ("LS97 ABD-MW", 315.6);
    ("naive fast-write", 620.3);
    ("Huang et al. W2R1", 284.5);
    ("naive fast-write/fast-read", 709.8);
  ]

let check_scaling ~require_knee path = function
  | List entries ->
    if entries = [] then err path "empty";
    (* (protocol, regime, clients, ops/s) per well-formed row, for the
       cross-row checks below. *)
    let rows = ref [] in
    List.iteri
      (fun i e ->
        let p = Printf.sprintf "%s[%d]" path i in
        let protocol = want_string e p "protocol" in
        want_mux e p "path";
        (match want_string e p "server" with
        | Some "reactor" | None -> ()
        | Some other ->
          err (p ^ ".server") (Printf.sprintf "unknown server %S" other));
        let regime =
          match want_string e p "regime" with
          | Some ("steady" | "short") as ok -> ok
          | Some other ->
            err (p ^ ".regime") (Printf.sprintf "unknown regime %S" other);
            None
          | None -> None
        in
        let clients = want_number e p "clients" in
        (match clients with
        | Some c when c <= 0.0 -> err (p ^ ".clients") "must be > 0"
        | Some _ | None -> ());
        let w = want_number e p "writers" in
        let r = want_number e p "readers" in
        (match[@warning "-4"] (clients, w, r) with
        | Some c, Some w, Some r when c <> w +. r ->
          err (p ^ ".clients") "must equal writers + readers"
        | _ -> ());
        (match w with
        | Some w when w <= 0.0 -> err (p ^ ".writers") "must be > 0"
        | Some _ | None -> ());
        (match r with
        | Some r when r <= 0.0 -> err (p ^ ".readers") "must be > 0"
        | Some _ | None -> ());
        positive e p "ops";
        positive e p "duration_s";
        let tput = want_number e p "throughput_ops_per_s" in
        (match tput with
        | Some t when t <= 0.0 -> err (p ^ ".throughput_ops_per_s") "must be > 0"
        | Some _ | None -> ());
        non_negative e p "write_p50_ms";
        non_negative e p "read_p50_ms";
        match[@warning "-4"] (protocol, regime, clients, tput) with
        | Some pr, Some re, Some c, Some t -> rows := (pr, re, c, t) :: !rows
        | _ -> ())
      entries;
    let rows = !rows in
    let protocols =
      List.sort_uniq compare (List.map (fun (pr, _, _, _) -> pr) rows)
    in
    (* Every protocol swept must carry the high-concurrency evidence: a
       steady row at C >= 1024 is what "the reactor sustains a thousand
       concurrent clients" means in this document. *)
    List.iter
      (fun pr ->
        let has_1024 =
          List.exists
            (fun (pr', re, c, _) -> pr' = pr && re = "steady" && c >= 1024.0)
            rows
        in
        if not has_1024 then
          err path
            (Printf.sprintf
               "%s: no steady row with clients >= 1024 (reactor must \
                sustain C=1024)"
               pr))
      protocols;
    if require_knee then
      List.iter
        (fun (pr, floor) ->
          if List.mem pr protocols then
            let best =
              List.fold_left
                (fun acc (pr', re, c, t) ->
                  if pr' = pr && re = "steady" && c >= 256.0 then
                    Float.max acc t
                  else acc)
                0.0 rows
            in
            if best < floor then
              err path
                (Printf.sprintf
                   "%s: best steady throughput at clients >= 256 is %.1f \
                    ops/s, below the thread-per-connection C=16 peak of %.1f \
                    — the scaling knee did not move"
                   pr best floor))
        threaded_c16_floor
  | Null | Bool _ | Num _ | Str _ | Obj _ -> err path "expected an array"

let want_bool_value obj path key =
  match field obj path key with
  | Some (Bool b) -> Some b
  | Some (Null | Num _ | Str _ | List _ | Obj _) ->
    err (path ^ "." ^ key) "expected a bool";
    None
  | None ->
    err path (Printf.sprintf "missing key %S" key);
    None

(* The kv_scaling section: the sharded keyspace sweep.  Shape always;
   verdict semantics always (a non-atomic sampled key means the per-key
   protocol broke under the KV plumbing — never acceptable); axis
   completeness and the scale-out knee only under [--require-knee],
   since the CI smoke regenerates a reduced sweep. *)

let kv_grid_groups = [ 1.0; 2.0; 4.0 ]
let kv_grid_clients = [ 64.0; 256.0 ]
let kv_grid_keys = [ 1_000.0; 100_000.0 ]
let kv_grid_dists = [ "zipfian"; "uniform" ]

let check_kv_scaling ~require_knee path = function
  | List entries ->
    if entries = [] then err path "empty";
    (* (regime, groups, clients, keys, dist, mix, ops/s) per well-formed
       row, for the cross-row checks below. *)
    let rows = ref [] in
    List.iteri
      (fun i e ->
        let p = Printf.sprintf "%s[%d]" path i in
        want_mux e p "plane";
        let regime =
          match want_string e p "regime" with
          | Some ("closed" | "scaleout") as ok -> ok
          | Some other ->
            err (p ^ ".regime") (Printf.sprintf "unknown regime %S" other);
            None
          | None -> None
        in
        non_negative e p "think_s";
        let groups = want_number e p "groups" in
        (match groups with
        | Some g when g < 1.0 -> err (p ^ ".groups") "must be >= 1"
        | Some _ | None -> ());
        let clients = want_number e p "clients" in
        (match clients with
        | Some c when c < 1.0 -> err (p ^ ".clients") "must be >= 1"
        | Some _ | None -> ());
        let keys = want_number e p "keys" in
        (match keys with
        | Some k when k < 1.0 -> err (p ^ ".keys") "must be >= 1"
        | Some _ | None -> ());
        let dist =
          match want_string e p "dist" with
          | Some ("zipfian" | "uniform") as ok -> ok
          | Some other ->
            err (p ^ ".dist") (Printf.sprintf "unknown dist %S" other);
            None
          | None -> None
        in
        let mix =
          match want_string e p "mix" with
          | Some ("A" | "B" | "C") as ok -> ok
          | Some other ->
            err (p ^ ".mix") (Printf.sprintf "unknown mix %S" other);
            None
          | None -> None
        in
        let ops = want_number e p "ops" in
        (match ops with
        | Some o when o <= 0.0 -> err (p ^ ".ops") "must be > 0"
        | Some _ | None -> ());
        positive e p "duration_s";
        let tput = want_number e p "throughput_ops_per_s" in
        (match tput with
        | Some t when t <= 0.0 ->
          err (p ^ ".throughput_ops_per_s") "must be > 0"
        | Some _ | None -> ());
        check_ms_obj e p "latency_ms";
        check_ms_obj e p "read_ms";
        check_ms_obj e p "write_ms";
        (match want_number e p "sampled_keys" with
        | Some k when k < 1.0 -> err (p ^ ".sampled_keys") "must be >= 1"
        | Some _ | None -> ());
        (match want_bool_value e p "atomic" with
        | Some false ->
          err p "a sampled key failed the atomicity checker: the per-key \
                 protocol broke under the KV plumbing"
        | Some true | None -> ());
        non_negative e p "starved";
        non_negative e p "late";
        non_negative e p "retries";
        non_negative e p "dropped_replies";
        positive e p "keys_touched";
        (match field e p "group_ops" with
        | Some (List per_group) ->
          List.iteri
            (fun g v ->
              match v with
              | Num n when n >= 0.0 -> ()
              | Num _ -> err (Printf.sprintf "%s.group_ops[%d]" p g) "must be >= 0"
              | Null | Bool _ | Str _ | List _ | Obj _ ->
                err (Printf.sprintf "%s.group_ops[%d]" p g) "expected a number")
            per_group;
          (match groups with
          | Some g when List.length per_group <> int_of_float g ->
            err (p ^ ".group_ops") "must have one entry per shard group"
          | Some _ | None -> ());
          let attempted =
            List.fold_left
              (fun acc v -> match[@warning "-4"] v with Num n -> acc +. n | _ -> acc)
              0.0 per_group
          in
          (match ops with
          | Some o when attempted < o ->
            err (p ^ ".group_ops")
              "attempted operations across groups below completed ops"
          | Some _ | None -> ())
        | Some (Null | Bool _ | Num _ | Str _ | Obj _) ->
          err (p ^ ".group_ops") "expected an array"
        | None -> err p "missing key \"group_ops\"");
        match[@warning "-4"] (regime, groups, clients, keys, dist, mix, tput) with
        | Some re, Some g, Some c, Some k, Some d, Some m, Some t ->
          rows := (re, g, c, k, d, m, t) :: !rows
        | _ -> ())
      entries;
    let rows = !rows in
    if require_knee then begin
      (* Axis completeness: the committed full-budget document must
         carry the whole closed-loop mix-A grid. *)
      List.iter
        (fun g ->
          List.iter
            (fun c ->
              List.iter
                (fun k ->
                  List.iter
                    (fun d ->
                      let present =
                        List.exists
                          (fun (re, g', c', k', d', m, _) ->
                            re = "closed" && g' = g && c' = c && k' = k
                            && d' = d && m = "A")
                          rows
                      in
                      if not present then
                        err path
                          (Printf.sprintf
                             "missing closed mix-A row: groups=%.0f \
                              clients=%.0f keys=%.0f dist=%s"
                             g c k d))
                    kv_grid_dists)
                kv_grid_keys)
            kv_grid_clients)
        kv_grid_groups;
      (* The knee itself: in the scale-out regime (constant per-shard
         offered load) the 4-group aggregate must beat the 1-group
         baseline — capacity composes across shards. *)
      let best g =
        List.fold_left
          (fun acc (re, g', _, _, _, _, t) ->
            if re = "scaleout" && g' = g then Float.max acc t else acc)
          0.0 rows
      in
      let t1 = best 1.0 and t4 = best 4.0 in
      if t1 = 0.0 || t4 = 0.0 then
        err path "scale-out rows at 1 and 4 groups are required"
      else if t4 <= t1 then
        err path
          (Printf.sprintf
             "4-group scale-out throughput %.1f ops/s does not exceed the \
              1-group baseline %.1f — shard capacity did not compose"
             t4 t1)
    end
  | Null | Bool _ | Num _ | Str _ | Obj _ -> err path "expected an array"

(* The soak section: the streaming checker riding the million-op
   workloads.  Shape and verdict semantics always (a violation in a
   regime where the theory promises atomicity means either the
   protocol or the online checker broke); volume and window-bound
   semantics only under [--require-knee], because the CI smoke
   regenerates the rows at a reduced op budget.  The window bound is
   the tentpole claim: peak resident operations must stay at least an
   order of magnitude below the stream length, or the checker is
   quietly holding history. *)

let check_soak ~require_knee path = function
  | List entries ->
    if entries = [] then err path "empty";
    (* (plane, ops, checked, peak_window) per well-formed row. *)
    let rows = ref [] in
    List.iteri
      (fun i e ->
        let p = Printf.sprintf "%s[%d]" path i in
        let plane =
          match want_string e p "plane" with
          | Some ("kv" | "session") as ok -> ok
          | Some other ->
            err (p ^ ".plane") (Printf.sprintf "unknown plane %S" other);
            None
          | None -> None
        in
        ignore (want_string e p "label");
        let ops = want_number e p "ops" in
        (match ops with
        | Some o when o <= 0.0 -> err (p ^ ".ops") "must be > 0"
        | Some _ | None -> ());
        positive e p "duration_s";
        positive e p "throughput_ops_per_s";
        positive e p "throughput_nocheck_ops_per_s";
        let checked = want_number e p "checked" in
        (match checked with
        | Some c when c <= 0.0 -> err (p ^ ".checked") "must be > 0"
        | Some _ | None -> ());
        (match want_number e p "keys" with
        | Some k when k < 1.0 -> err (p ^ ".keys") "must be >= 1"
        | Some _ | None -> ());
        let window = want_number e p "peak_window" in
        (match window with
        | Some w when w < 1.0 ->
          err (p ^ ".peak_window")
            "must be >= 1 (the checker always holds the in-flight window)"
        | Some _ | None -> ());
        positive e p "checker_ops_per_s";
        positive e p "batches";
        let violations = want_number e p "violations" in
        (match violations with
        | Some v when v < 0.0 -> err (p ^ ".violations") "must be >= 0"
        | Some _ | None -> ());
        (match
           ( want_bool_value e p "atomic",
             want_bool_value e p "expected_atomic",
             violations )
         with
        | Some false, Some true, _ ->
          err p
            "live checker reported a violation in a regime where the \
             theory promises atomicity"
        | Some true, _, Some v when v > 0.0 ->
          err p "atomic=true is inconsistent with violations > 0"
        | (Some _ | None), (Some _ | None), (Some _ | None) -> ());
        match[@warning "-4"] (plane, ops, checked, window) with
        | Some pl, Some o, Some c, Some w -> rows := (pl, o, c, w) :: !rows
        | _ -> ())
      entries;
    let rows = !rows in
    (* Both soak rows must ride: the single-register chaos storm
       (plane "session") and the keyspace run (plane "kv"). *)
    List.iter
      (fun pl ->
        if not (List.exists (fun (pl', _, _, _) -> pl' = pl) rows) then
          err path (Printf.sprintf "missing soak row for plane %S" pl))
      [ "kv"; "session" ];
    (* The stream must be fully covered: the checker sees at least
       every completed operation (aborted clients may add a pending
       one on top). *)
    List.iteri
      (fun i (_, o, c, _) ->
        if c < o then
          err
            (Printf.sprintf "%s[%d]" path i)
            "checked below completed ops: the live checker missed part \
             of the stream")
      (List.rev rows);
    if require_knee then begin
      let headline =
        List.exists
          (fun (_, o, c, w) -> o >= 1_000_000.0 && c >= o && w <= o /. 10.0)
          rows
      in
      if not headline then
        err path
          "no row with ops >= 1e6, full stream coverage, and peak_window \
           <= ops/10 — the million-op live-checked soak is the headline \
           claim of this section"
    end
  | Null | Bool _ | Num _ | Str _ | Obj _ -> err path "expected an array"

(* The chaos section carries semantics, not just shape: the soak's
   verdicts must match the theory (atomic wherever the design point is
   possible) and the restart-fidelity script must show both halves of
   the crash-stop argument — recover atomic, fresh caught with a
   witness. *)

let check_chaos path = function
  | Obj _ as chaos ->
    non_negative chaos path "base_seed";
    (match field chaos path "soak" with
    | Some (List entries) ->
      if entries = [] then err (path ^ ".soak") "empty";
      List.iteri
        (fun i e ->
          let p = Printf.sprintf "%s.soak[%d]" path i in
          ignore (want_string e p "protocol");
          want_mux e p "transport";
          non_negative e p "seed";
          non_negative e p "drop";
          non_negative e p "delay_s";
          non_negative e p "duplicate";
          want_bool e p "restarted";
          positive e p "ops";
          positive e p "duration_s";
          positive e p "write_rounds_per_op";
          positive e p "read_rounds_per_op";
          non_negative e p "retries";
          non_negative e p "late";
          non_negative e p "unavailable";
          match
            (want_bool_value e p "atomic", want_bool_value e p "expected_atomic")
          with
          | Some false, Some true ->
            err p "non-atomic in a possible regime: chaos broke the protocol"
          | (Some _ | None), (Some _ | None) -> ())
        entries
    | Some (Null | Bool _ | Num _ | Str _ | Obj _) ->
      err (path ^ ".soak") "expected an array"
    | None -> err path "missing key \"soak\"");
    (match field chaos path "restart" with
    | Some (List entries) ->
      if entries = [] then err (path ^ ".restart") "empty";
      List.iteri
        (fun i e ->
          let p = Printf.sprintf "%s.restart[%d]" path i in
          want_mux e p "transport";
          let mode = want_string e p "mode" in
          let atomic = want_bool_value e p "atomic" in
          let witness = field e p "witness" in
          match mode with
          | Some "recover" ->
            if atomic = Some false then
              err p "restart-with-recovery must preserve atomicity"
          | Some "fresh" ->
            if atomic = Some true then
              err p "fresh restart must lose the write and fail the checker";
            (match witness with
            | Some (Str w) when w <> "" -> ()
            | Some Null | None ->
              err (p ^ ".witness") "fresh restart must record a checker witness"
            | Some (Bool _ | Num _ | Str _ | List _ | Obj _) ->
              err (p ^ ".witness") "expected a non-empty string")
          | Some other -> err (p ^ ".mode") (Printf.sprintf "unknown mode %S" other)
          | None -> ())
        entries
    | Some (Null | Bool _ | Num _ | Str _ | Obj _) ->
      err (path ^ ".restart") "expected an array"
    | None -> err path "missing key \"restart\"")
  | Null | Bool _ | Num _ | Str _ | List _ -> err path "expected an object"

(* The geo section is the WAN/geo acceptance grid: every registry
   protocol under at least three named profiles —
   all in possible regimes, so every verdict must be atomic — plus the
   region-outage scenario (a partition composed on top of the
   wan-3region delays) whose verdict must come from the streaming
   checker and also be atomic. *)

let check_geo path = function
  | Obj _ as geo ->
    (match field geo path "rows" with
    | Some (List entries) ->
      if entries = [] then err (path ^ ".rows") "empty";
      let profiles = ref [] and protocols = ref [] in
      let remember r v = if not (List.mem v !r) then r := v :: !r in
      List.iteri
        (fun i e ->
          let p = Printf.sprintf "%s.rows[%d]" path i in
          let profile = want_string e p "profile" in
          let protocol = want_string e p "protocol" in
          ignore (want_string e p "design_point");
          want_mux e p "transport";
          positive e p "s";
          non_negative e p "t";
          positive e p "writers";
          positive e p "readers";
          positive e p "ops";
          positive e p "duration_s";
          positive e p "throughput_ops_per_s";
          positive e p "write_rounds_per_op";
          positive e p "read_rounds_per_op";
          check_ms_obj e p "write_ms";
          check_ms_obj e p "read_ms";
          (match want_bool_value e p "atomic" with
          | Some true | None -> ()
          | Some false ->
            err p "non-atomic under a geo profile: delays broke the protocol");
          Option.iter (remember profiles) profile;
          Option.iter (remember protocols) protocol)
        entries;
      if List.length !profiles < 3 then
        err (path ^ ".rows")
          (Printf.sprintf
             "only %d named profile(s); the grid needs at least 3"
             (List.length !profiles));
      if List.length !protocols < 8 then
        err (path ^ ".rows")
          (Printf.sprintf
             "only %d protocol(s); the grid covers the whole registry (8)"
             (List.length !protocols))
    | Some (Null | Bool _ | Num _ | Str _ | Obj _) ->
      err (path ^ ".rows") "expected an array"
    | None -> err path "missing key \"rows\"");
    (match field geo path "outage" with
    | Some (List entries) ->
      if entries = [] then err (path ^ ".outage") "empty";
      List.iteri
        (fun i e ->
          let p = Printf.sprintf "%s.outage[%d]" path i in
          ignore (want_string e p "profile");
          ignore (want_string e p "protocol");
          want_mux e p "transport";
          ignore (want_string e p "region");
          positive e p "window_s";
          positive e p "ops";
          positive e p "duration_s";
          non_negative e p "retries";
          non_negative e p "unavailable";
          (match want_string e p "check" with
          | Some "live" | None -> ()
          | Some other ->
            err (p ^ ".check")
              (Printf.sprintf
                 "verdict must come from the streaming checker (\"live\"), \
                  got %S"
                 other));
          match want_bool_value e p "atomic" with
          | Some true | None -> ()
          | Some false ->
            err p "a region outage may cost retries, never atomicity")
        entries
    | Some (Null | Bool _ | Num _ | Str _ | Obj _) ->
      err (path ^ ".outage") "expected an array"
    | None -> err path "missing key \"outage\"")
  | Null | Bool _ | Num _ | Str _ | List _ -> err path "expected an object"

let () =
  let require_knee = ref false in
  let path = ref "BENCH_results.json" in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--require-knee" -> require_knee := true
        | _ -> path := arg)
    Sys.argv;
  let path = !path in
  let contents =
    try
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      s
    with Sys_error msg ->
      Printf.eprintf "cannot read %s: %s\n" path msg;
      exit 1
  in
  let doc =
    try parse contents
    with Parse_error msg ->
      Printf.eprintf "%s: JSON parse error %s\n" path msg;
      exit 1
  in
  ignore (want_string doc "$" "generated_by");
  positive doc "$" "recommended_domain_count";
  let optional = ref 0 in
  let section key checker =
    match field doc "$" key with
    | Some v ->
      incr optional;
      checker ("$." ^ key) v
    | None -> ()
  in
  section "wall_clock" check_wall_clock;
  section "micro_ns_per_run" check_micro;
  section "live" check_live;
  section "live_scaling" (check_scaling ~require_knee:!require_knee);
  section "kv_scaling" (check_kv_scaling ~require_knee:!require_knee);
  section "geo" check_geo;
  section "soak" (check_soak ~require_knee:!require_knee);
  section "chaos" check_chaos;
  if !optional = 0 then
    err "$"
      "no result section present (wall_clock / micro_ns_per_run / live / \
       live_scaling / kv_scaling / geo / soak / chaos)";
  (* The committed full-budget document must carry the geo grid; a
     partial regeneration that dropped it is a regression, not a
     smaller doc. *)
  (match (!require_knee, field doc "$" "geo") with
  | true, None ->
    err "$" "missing geo section (required with --require-knee)"
  | (true | false), (Some _ | None) -> ());
  match List.rev !errors with
  | [] ->
    Printf.printf "%s: schema OK (%d section(s))\n" path !optional;
    exit 0
  | es ->
    List.iter (fun e -> Printf.eprintf "%s: %s\n" path e) es;
    exit 1
