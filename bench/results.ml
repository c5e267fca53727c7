(* BENCH_results.json, declared once: the value [micro] measures, the
   bounds it must meet, and the one layout it is printed in.  The bench
   writes the file through [write]; the validator accepts a file only
   if [of_string] reads it back and [errors] finds nothing. *)

type sweep = {
  runs : int;
  broken : int;
  seq_s : float;
  par_s : float;
  domains : int;
  speedup : float;
}

type t = {
  recommended_domains : int;
  wall_clock : sweep;
  micro_ns_per_run : (string * float) list;
}

let generated_by = "dune exec bench/main.exe -- micro"

(* Two decimals: the ratio is a median of paired rounds, so digits
   below that are timer noise, not parallelism (on a clamped
   single-domain pool the honest value is exactly 1.0). *)
let two_decimals x = Float.round (x *. 100.0) /. 100.0

let errors t =
  let fail key fmt = Printf.ksprintf (fun msg -> [ key ^ ": " ^ msg ]) fmt in
  let at_least_0 key n = if n >= 0 then [] else fail key "must be >= 0, got %d" n in
  let above_0 key x =
    if x > 0.0 && x < Float.infinity then [] else fail key "must be > 0 and finite, got %g" x
  in
  (* A name prints between quotes as it is, so it must need no escape. *)
  let bare name =
    if name <> "" && String.for_all (fun c -> c >= ' ' && c <= '~' && c <> '"' && c <> '\\') name
    then []
    else fail "micro_ns_per_run" "name %S needs escaping" name
  in
  let w = t.wall_clock in
  above_0 "recommended_domain_count" (float_of_int t.recommended_domains)
  @ at_least_0 "wall_clock.runs" w.runs
  @ at_least_0 "wall_clock.violations" w.broken
  @ above_0 "wall_clock.sequential_s" w.seq_s
  @ above_0 "wall_clock.parallel_s" w.par_s
  @ above_0 "wall_clock.domains" (float_of_int w.domains)
  @ above_0 "wall_clock.speedup" (two_decimals w.speedup)
  @ (if t.micro_ns_per_run = [] then fail "micro_ns_per_run" "empty" else [])
  @ List.concat_map
      (fun (name, ns) -> bare name @ above_0 ("micro_ns_per_run." ^ name) ns)
      t.micro_ns_per_run

(* Integral numbers print bare; any other in six significant digits:
   no measurement here resolves more, and the digits past them are
   noise that would churn the committed file on every run. *)
let number x =
  if Float.is_integer x then Printf.sprintf "%.0f" x
  else
    let r = float_of_string (Printf.sprintf "%.6g" x) in
    if Float.is_integer r then Printf.sprintf "%.0f" r else Printf.sprintf "%.6g" r

let to_string t =
  let w = t.wall_clock in
  let quote s = "\"" ^ s ^ "\"" in
  (* One member per line, two spaces of indent per level. *)
  let obj indent members =
    let pad = String.make (indent + 2) ' ' in
    "{\n"
    ^ String.concat ",\n" (List.map (fun (k, v) -> pad ^ quote k ^ ": " ^ v) members)
    ^ "\n" ^ String.make indent ' ' ^ "}"
  in
  let sweep =
    obj 4
      [
        ("experiment", quote "t1-measurement-sweep");
        ("runs", string_of_int w.runs);
        ("violations", string_of_int w.broken);
        ("sequential_s", number w.seq_s);
        ("parallel_s", number w.par_s);
        ("domains", string_of_int w.domains);
        ("speedup", number (two_decimals w.speedup));
      ]
  in
  obj 0
    [
      ("generated_by", quote generated_by);
      ("recommended_domain_count", string_of_int t.recommended_domains);
      ("wall_clock", "[\n    " ^ sweep ^ "\n  ]");
      ( "micro_ns_per_run",
        obj 2 (List.map (fun (name, ns) -> (name, number ns)) t.micro_ns_per_run) );
    ]
  ^ "\n"

(* Scanf reads the values; a space in its format matches any run of
   blanks, so the exact layout (the constant strings included) is
   checked by printing the value back. *)
let of_string s =
  let ib = Scanf.Scanning.from_string s in
  let rec micro acc =
    let acc = Scanf.bscanf ib " \"%[^\"]\": %f" (fun name ns -> (name, ns) :: acc) in
    if Scanf.bscanf ib " %[,]" (( = ) ",") then micro acc else List.rev acc
  in
  let read () =
    Scanf.bscanf ib
      " { \"generated_by\": \"%_[^\"]\", \"recommended_domain_count\": %d, \
       \"wall_clock\": [ { \"experiment\": \"%_[^\"]\", \"runs\": %d, \
       \"violations\": %d, \"sequential_s\": %f, \"parallel_s\": %f, \
       \"domains\": %d, \"speedup\": %f } ], \"micro_ns_per_run\": {"
      (fun recommended_domains runs broken seq_s par_s domains speedup ->
        let wall_clock = { runs; broken; seq_s; par_s; domains; speedup } in
        let micro_ns_per_run = micro [] in
        Scanf.bscanf ib " } } %!" ();
        { recommended_domains; wall_clock; micro_ns_per_run })
  in
  let line upto =
    String.fold_left (fun l c -> if c = '\n' then l + 1 else l) 1 (String.sub s 0 upto)
  in
  match read () with
  | exception (Scanf.Scan_failure msg | Failure msg) ->
    Error (Printf.sprintf "line %d: %s" (line (Scanf.bscanf ib "%n" Fun.id)) msg)
  | exception End_of_file -> Error "unexpected end of file"
  | t when to_string t = s -> Ok t
  | t ->
    let printed = to_string t in
    let n = min (String.length s) (String.length printed) in
    let rec differ i = if i < n && s.[i] = printed.[i] then differ (i + 1) else i in
    Error (Printf.sprintf "line %d is not as the bench prints it" (line (differ 0)))

let write path t =
  match errors t with
  | [] -> Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (to_string t))
  | errs -> invalid_arg ("Results.write: " ^ String.concat "; " errs)
