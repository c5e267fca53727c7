(* BENCH_results.json, declared once.  Every section is a list of
   tables; every table declares its columns (key, check, and how the
   value is computed from a measurement) and its gates.  The bench
   harness encodes rows through these declarations and the validator
   checks documents against them, so a key, its type and its bound are
   spelled in exactly one place. *)

open Workload

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
  | Flag  (** bool *)
  | Above of float  (** number > bound *)
  | At_least of float  (** number >= bound *)
  | Ms  (** latency summary in ms: mean/p50/p95/p99, each >= 0 *)
  | Counts  (** array of numbers >= 0 *)
  | Map_of of check  (** non-empty object, every value passing the check *)
  | Or_null of check

let ms_keys = [ "mean"; "p50"; "p95"; "p99" ]

(* Views of one JSON type; every other type reads as [None]. *)
let[@warning "-4"] as_str = function Str s -> Some s | _ -> None
let[@warning "-4"] as_num = function Num f -> Some f | _ -> None
let[@warning "-4"] as_bool = function Bool b -> Some b | _ -> None
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
  | Flag -> if as_bool v = None then expected "a bool" else []
  | Above x -> bound (fun f -> f > x) ">" x
  | At_least x -> bound (fun f -> f >= x) ">=" x
  | Ms -> (
    match as_obj v with
    | Some _ -> List.concat_map (member_check (At_least 0.0) path v) ms_keys
    | None -> expected "an object")
  | Counts -> (
    match as_list v with
    | Some items ->
      let item i = check (At_least 0.0) (Printf.sprintf "%s[%d]" path i) in
      List.concat (List.mapi item items)
    | None -> expected "an array")
  | Map_of c -> (
    match as_obj v with
    | Some [] -> [ err path "empty" ]
    | Some fields -> List.concat_map (fun (k, x) -> check c (path ^ "." ^ k) x) fields
    | None -> expected "an object")
  | Or_null c -> if v = Null then [] else check c path v

(* Errors of member [key] of object [obj] at [path]. *)
and member_check c path obj key =
  match Option.bind (as_obj obj) (List.assoc_opt key) with
  | Some v -> check c (path ^ "." ^ key) v
  | None -> [ err path (Printf.sprintf "missing key %S" key) ]

(* ------------------------------------------------------------------ *)
(* Tables                                                               *)
(* ------------------------------------------------------------------ *)

type 'm column = { key : string; check : check; get : 'm -> json }

let col key check get = { key; check; get }

(* Gates run over the rows that passed every column check. *)
type gate =
  | Each_row of (json -> (string * string) list)
      (** per row: (column key, or "" for the row itself; message) *)
  | Across_rows of (json list -> string list)
      (** across the table: messages at the table's path *)

type 'm layout =
  | Rows of 'm column list  (** an array with one object per measurement *)
  | Value of check * ('m -> json)  (** a single value, replaced by each add *)

type 'm table = {
  path : string list;
  layout : 'm layout;
  gates : gate list;
  knee_gates : gate list;  (** only under [--require-knee] *)
  mutable fresh : json list;  (** this run's values, newest first *)
}

let table ?(gates = []) ?(knee_gates = []) path columns =
  { path; layout = Rows columns; gates; knee_gates; fresh = [] }

let value path check get =
  { path; layout = Value (check, get); gates = []; knee_gates = []; fresh = [] }

(* Reading a gated row: its columns are present and well-typed. *)
let field c row =
  Option.value ~default:Null (Option.bind (as_obj row) (List.assoc_opt c.key))

let num c row = Option.value ~default:nan (as_num (field c row))
let text c row = Option.value ~default:"" (as_str (field c row))
let flag c row = as_bool (field c row) = Some true

(* ------------------------------------------------------------------ *)
(* Measurements and shared columns                                      *)
(* ------------------------------------------------------------------ *)

module S = Kv.Kv_session
module C = Kv.Chaos
module Sink = Transport.Check_sink

type run = {
  register : Protocol.Register_intf.t;
  s : int;
  tol : int;
  writers : int;
  readers : int;
  result : S.result;
}

type outage = { profile : Transport.Geo.profile; region : int; window_s : float }
type kv_run = { regime : string; groups : int; spec : S.spec; kv : S.result }

type soak_run = {
  plane : string;
  label : string;
  ops : int;
  duration : float;
  nocheck_throughput : float;
  expected_atomic : bool;
  report : Sink.report;
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
let rate ops duration = if duration > 0.0 then float_of_int ops /. duration else 0.0

let ms (st : Stats.summary) =
  Obj
    (List.map2
       (fun k v -> (k, Num (1e3 *. v)))
       ms_keys
       [ st.Stats.mean; st.Stats.p50; st.Stats.p95; st.Stats.p99 ])

let constant key v = col key (One_of [ v ]) (fun _ -> Str v)

(* Live rows name the client data plane they ran on; the shared mux is
   the only one. *)
let mux key = constant key "mux"

(* Keys several sections share, each computed from what its
   measurement holds. *)
let protocol f = col "protocol" Text (fun m -> Str (Registers.Registry.name (f m)))
let ops f = col "ops" (Above 0.0) (fun m -> int (f m))
let duration f = col "duration_s" (Above 0.0) (fun m -> Num (f m))

let throughput f =
  col "throughput_ops_per_s" (Above 0.0) (fun m ->
      let ops, duration = f m in
      Num (rate ops duration))

let atomic f = col "atomic" Flag (fun m -> Bool (f m))
let expected_atomic f = col "expected_atomic" Flag (fun m -> Bool (f m))

(* Columns over a driver result. *)
let result_duration = duration (fun (r : S.result) -> r.S.duration)
let rounds key f = col key (Above 0.0) (fun (r : S.result) -> Num (f r))
let write_rounds = rounds "write_rounds_per_op" (fun r -> r.S.write_rounds)
let read_rounds = rounds "read_rounds_per_op" (fun r -> r.S.read_rounds)
let retries = col "retries" (At_least 0.0) (fun (r : S.result) -> int r.S.retries)
let late = col "late" (At_least 0.0) (fun (r : S.result) -> int r.S.late)

(* Clients aborted by an unreachable quorum. *)
let unavailable = col "unavailable" (At_least 0.0) (fun (r : S.result) -> int r.S.starved)

(* The streaming checker's verdict; a run it did not check is not
   atomic by this document's standard. *)
let streamed_atomic (r : S.result) =
  match r.S.online with Some rep -> Sink.atomic rep | None -> false

(* Columns over a register run. *)
let on_result c = { c with get = (fun r -> c.get r.result) }
let on_run c = { c with get = (fun (_, r) -> c.get r) }
let run_ops r = r.result.S.ops
let run_protocol = protocol (fun r -> r.register)

let design_point =
  col "design_point" Text (fun r ->
      Str
        (Quorums.Bounds.design_point_to_string
           (Registers.Registry.design_point r.register)))

let servers = col "s" (Above 0.0) (fun r -> int r.s)
let tolerance = col "t" (At_least 0.0) (fun r -> int r.tol)
let writers = col "writers" (Above 0.0) (fun r -> int r.writers)
let readers = col "readers" (Above 0.0) (fun r -> int r.readers)
let run_count = ops run_ops
let run_duration = on_result result_duration
let run_throughput = throughput (fun r -> (run_ops r, r.result.S.duration))
let write_ms = col "write_ms" Ms (fun r -> ms r.result.S.write_lat)
let read_ms = col "read_ms" Ms (fun r -> ms r.result.S.read_lat)
let run_atomic = atomic (fun r -> streamed_atomic r.result)

(* A gate's findings: the message, unless the condition holds. *)
let unless ok msg = if ok then [] else [ msg ]

(* The verdict gate of every table whose rows run in possible regimes
   only. *)
let must_be_atomic c msg = Each_row (fun row -> unless (flag c row) ("", msg))

(* The same, for tables whose rows say themselves whether theirs is. *)
let atomic_where_expected c expected msg =
  Each_row (fun row -> unless (flag c row || not (flag expected row)) ("", msg))

(* ------------------------------------------------------------------ *)
(* Sections                                                             *)
(* ------------------------------------------------------------------ *)

let wall_clock =
  table [ "wall_clock" ]
    [
      constant "experiment" "t1-measurement-sweep";
      col "runs" (At_least 0.0) (fun m -> int m.runs);
      col "violations" (At_least 0.0) (fun m -> int m.broken);
      col "sequential_s" (Above 0.0) (fun m -> Num m.seq_s);
      col "parallel_s" (Above 0.0) (fun m -> Num m.par_s);
      col "domains" (Above 0.0) (fun m -> int m.domains);
      (* Two decimals: the ratio is a median of paired rounds, so digits
         below that are timer noise, not parallelism (on a clamped
         single-domain pool the honest value is exactly 1.0). *)
      col "speedup" (Above 0.0) (fun m -> Num (Float.round (m.speedup *. 100.0) /. 100.0));
    ]

let micro_ns_per_run =
  value [ "micro_ns_per_run" ] (Map_of (Above 0.0)) (fun estimates ->
      Obj (List.map (fun (name, ns) -> (name, Num ns)) estimates))

let live =
  table [ "live" ]
    [
      run_protocol; design_point; servers; tolerance; writers; readers;
      run_count; run_duration; run_throughput; on_result write_rounds;
      on_result read_rounds; write_ms; read_ms; run_atomic;
    ]

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

let live_scaling =
  let clients = col "clients" (Above 0.0) (fun (_, r) -> int (r.writers + r.readers)) in
  let regime = col "regime" (One_of [ "steady"; "short" ]) (fun (re, _) -> Str re) in
  let p50 key summary =
    col key (At_least 0.0) (fun (_, r) -> Num (1e3 *. (summary r.result).Stats.p50))
  in
  let protocols rows = List.sort_uniq compare (List.map (text run_protocol) rows) in
  let steady_at pr c row =
    text run_protocol row = pr && text regime row = "steady" && num clients row >= c
  in
  table [ "live_scaling" ]
    [
      on_run run_protocol; mux "path"; constant "server" "reactor"; clients;
      regime; on_run writers; on_run readers; on_run run_count;
      on_run run_duration; on_run run_throughput;
      p50 "write_p50_ms" (fun r -> r.S.write_lat);
      p50 "read_p50_ms" (fun r -> r.S.read_lat);
    ]
    ~gates:
      [
        Each_row
          (fun row ->
            unless
              (num clients row = num writers row +. num readers row)
              (clients.key, "must equal writers + readers"));
        (* Every protocol swept must carry the high-concurrency evidence:
           a steady row at C >= 1024 is what "the reactor sustains a
           thousand concurrent clients" means in this document. *)
        Across_rows
          (fun rows ->
            List.concat_map
              (fun pr ->
                unless
                  (List.exists (steady_at pr 1024.0) rows)
                  (pr
                  ^ ": no steady row with clients >= 1024 (reactor must sustain C=1024)"))
              (protocols rows));
      ]
    ~knee_gates:
      [
        Across_rows
          (fun rows ->
            List.concat_map
              (fun (pr, floor) ->
                let steady = List.filter (steady_at pr 256.0) rows in
                let best =
                  List.fold_left Float.max 0.0 (List.map (num run_throughput) steady)
                in
                unless
                  (best >= floor || not (List.mem pr (protocols rows)))
                  (Printf.sprintf
                     "%s: best steady throughput at clients >= 256 is %.1f ops/s, \
                      below the thread-per-connection C=16 peak of %.1f — the \
                      scaling knee did not move"
                     pr best floor))
              threaded_c16_floor);
      ]

(* The closed-loop mix-A acceptance grid, groups x clients x keys x
   dist: the bench sweeps it and [--require-knee] demands every cell. *)
let kv_grid =
  let ( let* ) cells f = List.concat_map f cells in
  let* groups = [ 1; 2; 4 ] in
  let* clients = [ 64; 256 ] in
  let* keys = [ 1_000; 100_000 ] in
  List.map
    (fun dist -> (groups, clients, keys, dist))
    [ Ycsb.Zipfian Ycsb.default_theta; Ycsb.Uniform ]

(* The sharded keyspace sweep.  A non-atomic key means the per-key
   protocol broke under the KV plumbing — never acceptable — and the
   streaming checker must have seen every key the workload touched. *)
let kv_scaling =
  let on_kv c = { c with get = (fun k -> c.get k.kv) } in
  let regime = col "regime" (One_of [ "closed"; "scaleout" ]) (fun k -> Str k.regime) in
  let groups = col "groups" (At_least 1.0) (fun k -> int k.groups) in
  let clients =
    col "clients" (At_least 1.0) (fun k ->
        match k.spec.S.roles with
        | S.Mixed c -> int c
        | S.Split { writers; readers } -> int (writers + readers))
  in
  let keys = col "keys" (At_least 1.0) (fun k -> int k.spec.S.keys) in
  let dist =
    col "dist" (One_of [ "zipfian"; "uniform" ]) (fun k ->
        Str (Ycsb.dist_name k.spec.S.dist))
  in
  let mix = col "mix" (One_of [ "A"; "B"; "C" ]) (fun k -> Str (Ycsb.mix_name k.spec.S.mix)) in
  let count = ops (fun k -> k.kv.S.ops) in
  let kv_throughput = throughput (fun k -> (k.kv.S.ops, k.kv.S.duration)) in
  let all_atomic = atomic (fun k -> streamed_atomic k.kv) in
  let checked_keys =
    col "checked_keys" (At_least 1.0) (fun k ->
        int (match k.kv.S.online with Some rep -> rep.Sink.keys | None -> 0))
  in
  let keys_touched = col "keys_touched" (Above 0.0) (fun k -> int k.kv.S.keys_touched) in
  let group_ops =
    col "group_ops" Counts (fun k -> List (List.map int (Array.to_list k.kv.S.group_ops)))
  in
  let best_scaleout g rows =
    let at_g row = text regime row = "scaleout" && num groups row = g in
    List.fold_left Float.max 0.0 (List.map (num kv_throughput) (List.filter at_g rows))
  in
  table [ "kv_scaling" ]
    [
      mux "plane"; regime;
      col "think_s" (At_least 0.0) (fun k -> Num k.spec.S.think);
      groups; clients; keys; dist; mix; count; on_kv result_duration;
      kv_throughput;
      col "latency_ms" Ms (fun k -> ms k.kv.S.all_lat);
      col "read_ms" Ms (fun k -> ms k.kv.S.read_lat);
      col "write_ms" Ms (fun k -> ms k.kv.S.write_lat);
      checked_keys; all_atomic;
      col "starved" (At_least 0.0) (fun k -> int k.kv.S.starved);
      on_kv late; on_kv retries;
      col "dropped_replies" (At_least 0.0) (fun k -> int k.kv.S.dropped);
      keys_touched; group_ops;
    ]
    ~gates:
      [
        must_be_atomic all_atomic
          "a key failed the streaming atomicity checker: the per-key \
           protocol broke under the KV plumbing";
        Each_row
          (fun row ->
            unless
              (num checked_keys row = num keys_touched row)
              (checked_keys.key, "must equal keys_touched: the checker missed a key"));
        Each_row
          (fun row ->
            let per_group =
              List.filter_map as_num (Option.value ~default:[] (as_list (field group_ops row)))
            in
            unless
              (float_of_int (List.length per_group) = num groups row)
              (group_ops.key, "must have one entry per shard group")
            @ unless
                (List.fold_left ( +. ) 0.0 per_group >= num count row)
                (group_ops.key, "attempted operations across groups below completed ops"));
      ]
    ~knee_gates:
      [
        (* Axis completeness: the committed full-budget document must
           carry the whole closed-loop mix-A grid. *)
        Across_rows
          (fun rows ->
            List.concat_map
              (fun (g, c, k, d) ->
                let cell row =
                  text regime row = "closed"
                  && num groups row = float_of_int g
                  && num clients row = float_of_int c
                  && num keys row = float_of_int k
                  && text dist row = Ycsb.dist_name d
                  && text mix row = "A"
                in
                unless (List.exists cell rows)
                  (Printf.sprintf
                     "missing closed mix-A row: groups=%d clients=%d keys=%d dist=%s"
                     g c k (Ycsb.dist_name d)))
              kv_grid);
        (* The knee itself: in the scale-out regime (constant per-shard
           offered load) the 4-group aggregate must beat the 1-group
           baseline — capacity composes across groups. *)
        Across_rows
          (fun rows ->
            let t1 = best_scaleout 1.0 rows and t4 = best_scaleout 4.0 rows in
            if t1 = 0.0 || t4 = 0.0 then [ "scale-out rows at 1 and 4 groups are required" ]
            else
              unless (t4 > t1)
                (Printf.sprintf
                   "4-group scale-out throughput %.1f ops/s does not exceed the \
                    1-group baseline %.1f — shard capacity did not compose"
                   t4 t1));
      ]

(* The WAN/geo acceptance grid: every registry protocol under at least
   three named profiles, all in possible regimes, so every verdict must
   be atomic. *)
let geo_rows =
  let profile = col "profile" Text (fun (p, _) -> Str (Transport.Geo.name p)) in
  let at_least n what c rows =
    let have = List.length (List.sort_uniq compare (List.map (text c) rows)) in
    unless (have >= n) (Printf.sprintf "only %d %s; the grid needs at least %d" have what n)
  in
  table [ "geo"; "rows" ]
    (profile
    :: List.map on_run
         [
           run_protocol; design_point; mux "transport"; servers; tolerance;
           writers; readers; run_count; run_duration; run_throughput;
           on_result write_rounds; on_result read_rounds; write_ms; read_ms;
           run_atomic;
         ])
    ~gates:
      [
        must_be_atomic run_atomic "non-atomic under a geo profile: delays broke the protocol";
        Across_rows (at_least 3 "named profile(s)" profile);
        (* The whole registry. *)
        Across_rows (at_least 8 "protocol(s)" run_protocol);
      ]

(* The region-outage scenario (a partition composed on top of the
   wan-3region delays): its verdict must come from the streaming
   checker and be atomic. *)
let geo_outage =
  table [ "geo"; "outage" ]
    [
      col "profile" Text (fun (o, _) -> Str (Transport.Geo.name o.profile));
      on_run run_protocol; mux "transport";
      col "region" Text (fun (o, _) -> Str (Transport.Geo.region_name o.profile o.region));
      col "window_s" (Above 0.0) (fun (o, _) -> Num o.window_s);
      on_run run_count; on_run run_duration; on_run (on_result retries);
      on_run (on_result unavailable);
      col "check" (One_of [ "live" ]) (fun (_, r) ->
          Str (if r.result.S.online = None then "off" else "live"));
      on_run run_atomic;
    ]
    ~gates:[ must_be_atomic run_atomic "a region outage may cost retries, never atomicity" ]

(* The streaming checker riding the million-op workloads.  A violation
   in a regime where the theory promises atomicity means the protocol
   or the online checker broke. *)
let soak_planes = [ "kv"; "session" ]

let soak =
  let plane = col "plane" (One_of soak_planes) (fun m -> Str m.plane) in
  let count = ops (fun m -> m.ops) in
  let checked = col "checked" (Above 0.0) (fun m -> int m.report.Sink.checked) in
  let window = col "peak_window" (At_least 1.0) (fun m -> int m.report.Sink.peak_window) in
  let violations =
    col "violations" (At_least 0.0) (fun m -> int (List.length m.report.Sink.violations))
  in
  let stream_atomic = atomic (fun m -> Sink.atomic m.report) in
  let expected = expected_atomic (fun m -> m.expected_atomic) in
  table [ "soak" ]
    [
      plane; col "label" Text (fun m -> Str m.label); count;
      duration (fun m -> m.duration);
      throughput (fun m -> (m.ops, m.duration));
      col "throughput_nocheck_ops_per_s" (Above 0.0) (fun m -> Num m.nocheck_throughput);
      checked;
      col "keys" (At_least 1.0) (fun m -> int m.report.Sink.keys);
      window;
      col "checker_ops_per_s" (Above 0.0) (fun m -> Num m.report.Sink.checker_ops_per_sec);
      col "batches" (Above 0.0) (fun m -> int m.report.Sink.batches);
      violations; stream_atomic; expected;
    ]
    ~gates:
      [
        atomic_where_expected stream_atomic expected
          "live checker reported a violation in a regime where the theory \
           promises atomicity";
        Each_row
          (fun row ->
            unless
              (num violations row = 0.0 || not (flag stream_atomic row))
              ("", "atomic=true is inconsistent with violations > 0")
            (* The checker sees at least every completed operation
               (aborted clients may add a pending one on top). *)
            @ unless
                (num checked row >= num count row)
                ( "",
                  "checked below completed ops: the live checker missed part of \
                   the stream" ));
        (* Both soak rows must ride: the single-register chaos storm and
           the keyspace run. *)
        Across_rows
          (fun rows ->
            List.concat_map
              (fun pl ->
                unless
                  (List.exists (fun row -> text plane row = pl) rows)
                  (Printf.sprintf "missing soak row for plane %S" pl))
              soak_planes);
      ]
    ~knee_gates:
      [
        (* The window bound is the headline claim: peak resident
           operations stay at least an order of magnitude below a
           million-op stream, or the checker is quietly holding history. *)
        Across_rows
          (fun rows ->
            let headline row =
              let o = num count row in
              o >= 1_000_000.0 && num checked row >= o && num window row <= o /. 10.0
            in
            unless (List.exists headline rows)
              "no row with ops >= 1e6, full stream coverage, and peak_window <= \
               ops/10 — the million-op live-checked soak is the headline claim \
               of this section");
      ]

let chaos_base_seed = value [ "chaos"; "base_seed" ] (At_least 0.0) int

(* Chaos verdicts must match the theory: atomic wherever the design
   point is possible. *)
let chaos_soak =
  let on_sk c = { c with get = (fun (sk : C.soak) -> c.get sk.C.result) } in
  let chaos_atomic = atomic (fun (sk : C.soak) -> streamed_atomic sk.C.result) in
  let expected = expected_atomic (fun (sk : C.soak) -> sk.C.expected_atomic) in
  table [ "chaos"; "soak" ]
    [
      protocol (fun (sk : C.soak) -> sk.C.register);
      mux "transport";
      col "seed" (At_least 0.0) (fun (sk : C.soak) -> int sk.C.seed);
      col "drop" (At_least 0.0) (fun (sk : C.soak) -> Num sk.C.drop);
      col "delay_s" (At_least 0.0) (fun (sk : C.soak) -> Num sk.C.delay);
      col "duplicate" (At_least 0.0) (fun (sk : C.soak) -> Num sk.C.duplicate);
      col "restarted" Flag (fun (sk : C.soak) -> Bool sk.C.restarted);
      ops (fun (sk : C.soak) -> sk.C.result.S.ops);
      on_sk result_duration; on_sk write_rounds; on_sk read_rounds;
      on_sk retries; on_sk late; on_sk unavailable; chaos_atomic; expected;
    ]
    ~gates:
      [
        atomic_where_expected chaos_atomic expected
          "non-atomic in a possible regime: chaos broke the protocol";
      ]

(* The restart-fidelity script must show both halves of the crash-stop
   argument: recover atomic, fresh caught with a witness. *)
let chaos_restart =
  let mode =
    col "mode" (One_of [ "recover"; "fresh" ]) (fun (o : C.restart_outcome) ->
        Str (match o.C.mode with `Recover -> "recover" | `Fresh -> "fresh"))
  in
  let restart_atomic = atomic (fun (o : C.restart_outcome) -> o.C.atomic) in
  let witness =
    col "witness" (Or_null Text) (fun (o : C.restart_outcome) ->
        Option.fold ~none:Null ~some:(fun w -> Str w) o.C.witness)
  in
  table [ "chaos"; "restart" ]
    [
      mode; mux "transport"; restart_atomic;
      col "read_value" (Or_null (At_least 0.0)) (fun (o : C.restart_outcome) ->
          Option.fold ~none:Null ~some:int o.C.read_value);
      witness;
    ]
    ~gates:
      [
        Each_row
          (fun row ->
            match text mode row with
            | "recover" ->
              unless (flag restart_atomic row)
                ("", "restart-with-recovery must preserve atomicity")
            | _ ->
              unless
                (not (flag restart_atomic row))
                ("", "fresh restart must lose the write and fail the checker")
              @ unless (field witness row <> Null)
                  (witness.key, "fresh restart must record a checker witness"));
      ]

type any = T : 'm table -> any

(* Declaration order is document order. *)
let tables =
  [
    T wall_clock; T micro_ns_per_run; T live; T live_scaling; T kv_scaling;
    T geo_rows; T geo_outage; T soak; T chaos_base_seed; T chaos_soak;
    T chaos_restart;
  ]

let section_of (T t) = List.hd t.path

let section_names =
  List.fold_left
    (fun acc t -> if List.mem (section_of t) acc then acc else acc @ [ section_of t ])
    [] tables


(* ------------------------------------------------------------------ *)
(* Adding, validating, writing                                          *)
(* ------------------------------------------------------------------ *)

let table_path t = "$." ^ String.concat "." t.path

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
        Printf.sprintf "%s[%d]" (table_path t) (List.length t.fresh) )
    | Value (_, get) -> (get m, table_path t)
  in
  let v = round_digits v in
  match schema t path v with
  | [] -> (
    match t.layout with
    | Rows _ -> t.fresh <- v :: t.fresh
    | Value _ -> t.fresh <- [ v ])
  | errors -> invalid_arg (String.concat "; " errors)

let run_gates gates path rows =
  List.concat_map
    (function
      | Each_row f ->
        List.concat_map
          (fun (row_path, row) ->
            List.map
              (fun (key, msg) ->
                err (if key = "" then row_path else row_path ^ "." ^ key) msg)
              (f row))
          rows
      | Across_rows f -> List.map (err path) (f (List.map snd rows)))
    gates

let validate_table ~require_knee doc (T t) =
  let path = table_path t in
  (* Sections are optional; a member of a present section is not. *)
  let rec locate here v = function
    | [] -> Ok v
    | key :: rest -> (
      match as_obj v with
      | None -> Error [ err here "expected an object" ]
      | Some fields -> (
        match List.assoc_opt key fields with
        | Some v -> locate (here ^ "." ^ key) v rest
        | None -> Error [ err here (Printf.sprintf "missing key %S" key) ]))
  in
  match Option.bind (as_obj doc) (List.assoc_opt (List.hd t.path)) with
  | None -> []
  | Some section -> (
    match locate ("$." ^ List.hd t.path) section (List.tl t.path) with
    | Error errors -> errors
    | Ok v -> (
      match (t.layout, as_list v) with
      | Value _, _ -> schema t path v
      | Rows _, None -> [ err path "expected an array" ]
      | Rows _, Some rows ->
        let rows =
          List.mapi
            (fun i row ->
              let row_path = Printf.sprintf "%s[%d]" path i in
              (row_path, row, schema t row_path row))
            rows
        in
        let valid =
          List.filter_map (fun (p, row, e) -> if e = [] then Some (p, row) else None) rows
        in
        unless (rows <> []) (err path "empty")
        @ List.concat_map (fun (_, _, errors) -> errors) rows
        @ run_gates t.gates path valid
        @ if require_knee then run_gates t.knee_gates path valid else []))

let sections doc =
  List.filter (fun s -> Option.bind (as_obj doc) (List.assoc_opt s) <> None) section_names

let validate ~require_knee doc =
  let errors =
    match as_obj doc with
    | None -> [ err "$" "expected an object" ]
    | Some _ ->
      member_check Text "$" doc "generated_by"
      @ member_check (Above 0.0) "$" doc "recommended_domain_count"
      @ List.concat_map (validate_table ~require_knee doc) tables
      @ unless (sections doc <> [])
          (err "$"
             ("no result section present (" ^ String.concat " / " section_names ^ ")"))
      (* The committed full-budget document must carry the geo grid; a
         partial regeneration that dropped it is a regression, not a
         smaller doc. *)
      @ unless
          (List.mem (section_of (T geo_rows)) (sections doc) || not require_knee)
          (err "$" "missing geo section (required with --require-knee)")
  in
  (* A section of the wrong shape is reported once, not per table. *)
  List.rev
    (List.fold_left (fun acc e -> if List.mem e acc then acc else e :: acc) [] errors)

let generated_by = "dune exec bench/main.exe -- micro live kv sk chaos geo"

(* The value of every section this run regenerated.  A section made of
   several tables is regenerated whole. *)
let fresh_sections () =
  let current (T t) =
    match t.layout with
    | Rows _ -> List (List.rev t.fresh)
    | Value _ -> ( match t.fresh with v :: _ -> v | [] -> Null)
  in
  List.filter_map
    (fun s ->
      let ts = List.filter (fun t -> section_of t = s) tables in
      if List.for_all (fun (T t) -> t.fresh = []) ts then None
      else
        match List.map (fun (T t as any) -> (List.tl t.path, current any)) ts with
        | [ ([], v) ] -> Some (s, v)
        | members ->
          Some (s, Obj (List.map (fun (sub, v) -> (String.concat "." sub, v)) members)))
    section_names

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
    let sections =
      List.filter_map
        (fun s ->
          match List.assoc_opt s fresh with
          | Some v -> Some (s, v)
          | None -> Option.map (fun v -> (s, v)) (List.assoc_opt s existing))
        section_names
      @ List.filter
          (fun (k, _) -> not (List.mem k section_names || List.mem_assoc k header))
          existing
    in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (print (Obj (header @ sections)) ^ "\n"));
    List.map fst sections
