type row = {
  handle : Protocol.Register_intf.t;
  algo : Client_core.algo;
  max_writers : int option;
}

let row ?max_writers name design_point algo =
  {
    handle = Cluster_base.register ~name ~design_point ?max_writers algo;
    algo;
    max_writers;
  }

(* The single source of truth: every protocol, declared once by its
   backend-agnostic client algorithm and its writer-count restriction.
   The simulator handle is built from the row, and everything else (the
   CLI, both benches, the live transport) derives from this row set —
   add a protocol here and it shows up everywhere. *)
module Row = struct
  let abd_mwmr = Abd_mwmr.(row name design_point algo)
  let abd_swmr = Abd_swmr.(row ~max_writers:1 name design_point algo)
  let fastread_w2r1 = Fastread_w2r1.(row name design_point algo)
  let dglv_w1r1 = Dglv_w1r1.(row ~max_writers:1 name design_point algo)
  let naive_w1r2 = Naive_w1r2.(row name design_point algo)
  let naive_w1r1 = Naive_w1r1.(row name design_point algo)
  let adaptive = Adaptive_read.(row name design_point algo)
  let slow_write_w3r1 = Slow_write_w3r1.(row name design_point algo)
end

let rows =
  Row.
    [
      abd_mwmr; abd_swmr; fastread_w2r1; dglv_w1r1; naive_w1r2; naive_w1r1;
      adaptive; slow_write_w3r1;
    ]

let abd_mwmr = Row.abd_mwmr.handle
let abd_swmr = Row.abd_swmr.handle
let fastread_w2r1 = Row.fastread_w2r1.handle
let dglv_w1r1 = Row.dglv_w1r1.handle
let naive_w1r2 = Row.naive_w1r2.handle
let naive_w1r1 = Row.naive_w1r1.handle
let adaptive = Row.adaptive.handle
let slow_write_w3r1 = Row.slow_write_w3r1.handle

let all = List.map (fun r -> r.handle) rows

let multi_writer = [ abd_mwmr; naive_w1r2; fastread_w2r1; naive_w1r1 ]

let name (module R : Protocol.Register_intf.S) = R.name
let design_point (module R : Protocol.Register_intf.S) = R.design_point

(* By identity: a handle packed elsewhere under a registered name is
   not the registered protocol. *)
let row_of fn handle =
  match List.find_opt (fun r -> r.handle == handle) rows with
  | Some r -> r
  | None -> invalid_arg (fn ^ ": unregistered protocol")

let client_algo r = (row_of "Registry.client_algo" r).algo

let max_writers r = (row_of "Registry.max_writers" r).max_writers

let clamp_writers r w =
  match max_writers r with Some m -> min m w | None -> w

(* Short design-point spellings and historical names accepted anywhere a
   protocol is named (previously duplicated in bin/mwreg.ml). *)
let aliases =
  [
    ("w2r2", "ls97"); ("ls97", "ls97 abd-mw"); ("w2r1", "huang");
    ("huang", "huang et al. w2r1"); ("w1r2", "naive fast-write");
    ("w1r1", "naive fast-write/fast-read"); ("swmr", "abd'95");
    ("sw", "abd'95"); ("abd95", "abd'95"); ("dglv", "dglv10");
    ("w3r1", "w3r1 (3-round write)"); ("semifast", "adaptive");
  ]

let find needle =
  let needle =
    match List.assoc_opt (String.lowercase_ascii needle) aliases with
    | Some alias -> alias
    | None -> needle
  in
  let lower = String.lowercase_ascii needle in
  let contains hay =
    let hay = String.lowercase_ascii hay in
    let n = String.length lower and m = String.length hay in
    let rec go i = i + n <= m && (String.sub hay i n = lower || go (i + 1)) in
    n = 0 || go 0
  in
  List.find_opt (fun r -> contains (name r)) all
