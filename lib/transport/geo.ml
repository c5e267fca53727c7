(* WAN/geo scenario profiles: one description of "who is far from
   whom", compiled into both backends.

   A profile is a pair of square per-region matrices — one-way base
   delay (RTT/2) and uniform jitter bound, rows = source region,
   columns = destination region — plus a deterministic node → region
   placement (node id mod region count).  Node ids are the shared
   Topology numbering (servers 0..S-1, then clients), identical on the
   simulator and the live planes, so the same profile means the same
   geography everywhere:

   - [latency_model] hands the matrices to {!Simulation.Latency.matrix}
     for the simulated backend;
   - [rules]/[plan] compile them into {!Faults.Latency} rule sets —
     one rule per (client region, server region, direction) — for the
     live transport, whose delay injection holds frames in the mux's
     deadline heap instead of sleeping in senders. *)

type profile = {
  name : string;
  description : string;
  regions : string array;
  delay : float array array; (* one-way seconds, [src].(dst) *)
  jitter : float array array; (* uniform bound, same shape *)
}

let make ~name ~description ~regions ~delay ~jitter =
  let r = Array.length regions in
  if r = 0 then invalid_arg "Geo.make: no regions";
  let square m = Array.length m = r && Array.for_all (fun row -> Array.length row = r) m in
  if not (square delay && square jitter) then
    invalid_arg "Geo.make: delay/jitter must be RxR for R regions";
  Array.iteri
    (fun a row ->
      Array.iteri
        (fun b d ->
          if not (d >= 0.0 && jitter.(a).(b) >= 0.0) then
            invalid_arg "Geo.make: delays and jitters must be >= 0";
          if d +. jitter.(a).(b) <= 0.0 then
            invalid_arg "Geo.make: every region pair needs delay + jitter > 0")
        row)
    delay;
  { name; description; regions; delay; jitter }

let name p = p.name
let region_count p = Array.length p.regions
let region_name p k = p.regions.(k)

(* Deterministic round-robin placement over the shared node numbering.
   Both compilers below use exactly this function — that is the
   bit-identical-geography contract. *)
let region_of p node =
  if node < 0 then invalid_arg "Geo.region_of: negative node id";
  node mod Array.length p.regions

let base p ~src ~dst = p.delay.(region_of p src).(region_of p dst)
let jitter_bound p ~src ~dst = p.jitter.(region_of p src).(region_of p dst)

(* Worst-case round trip under the profile: the slowest (there, back)
   pair including jitter.  Both budgets below are sized from it. *)
let max_rtt p =
  let r = Array.length p.regions in
  let worst = ref 0.0 in
  for a = 0 to r - 1 do
    for b = 0 to r - 1 do
      let rtt =
        p.delay.(a).(b) +. p.jitter.(a).(b) +. p.delay.(b).(a)
        +. p.jitter.(b).(a)
      in
      if rtt > !worst then worst := rtt
    done
  done;
  !worst

type budget = { rt_timeout : float; max_rt_retries : int }

let budget p =
  { rt_timeout = Float.max 1.0 (8.0 *. max_rtt p); max_rt_retries = 3 }

let outage_budget p =
  { rt_timeout = Float.max 0.3 (4.0 *. max_rtt p); max_rt_retries = 10 }

(* ------------------------------------------------------------------ *)
(* The named profiles                                                  *)
(* ------------------------------------------------------------------ *)

let sym2 ~intra ~cross ~jintra ~jcross =
  ( [| [| intra; cross |]; [| cross; intra |] |],
    [| [| jintra; jcross |]; [| jcross; jintra |] |] )

let lan =
  make ~name:"lan"
    ~description:"one rack: ~0.6ms RTT everywhere"
    ~regions:[| "local" |]
    ~delay:[| [| 0.0003 |] |]
    ~jitter:[| [| 0.0002 |] |]

let wan_3region =
  (* Three symmetric regions, ~1ms RTT inside a region, ~80ms RTT
     across any two — the classic continental triangle. *)
  let intra = 0.0005 and cross = 0.04 in
  let jintra = 0.0003 and jcross = 0.004 in
  let row a =
    Array.init 3 (fun b -> if a = b then intra else cross)
  and jrow a = Array.init 3 (fun b -> if a = b then jintra else jcross) in
  make ~name:"wan-3region"
    ~description:"3 regions, ~1ms intra / ~80ms cross RTT"
    ~regions:[| "us-east"; "eu-west"; "ap-south" |]
    ~delay:(Array.init 3 row)
    ~jitter:(Array.init 3 jrow)

let mixed_1ms_80ms =
  let delay, jitter =
    sym2 ~intra:0.0005 ~cross:0.04 ~jintra:0.0003 ~jcross:0.004
  in
  make ~name:"mixed-1ms-80ms"
    ~description:"2 regions: ~1ms RTT at home, ~80ms RTT across"
    ~regions:[| "near"; "far" |]
    ~delay ~jitter

let asym_updown =
  (* Edge-to-core links where the upstream leg is slower than the
     downstream one (30ms up, 10ms down): delay.(0).(1) <>
     delay.(1).(0), the case a single local/cross pair cannot say. *)
  make ~name:"asym-updown"
    ~description:"asymmetric edge<->core: 30ms up, 10ms down"
    ~regions:[| "edge"; "core" |]
    ~delay:[| [| 0.0003; 0.030 |]; [| 0.010; 0.0003 |] |]
    ~jitter:[| [| 0.0002; 0.003 |]; [| 0.001; 0.0002 |] |]

let profiles = [ lan; wan_3region; mixed_1ms_80ms; asym_updown ]

let find s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun p -> String.lowercase_ascii p.name = s) profiles

let names () = List.map (fun p -> p.name) profiles

(* ------------------------------------------------------------------ *)
(* Compilation: one profile, two backends                              *)
(* ------------------------------------------------------------------ *)

let latency_model p =
  Simulation.Latency.matrix ~region_of:(region_of p)
    ~delay:p.delay ~jitter:p.jitter

(* The live-plane compilation: for every (client region a, server
   region b) with members on both sides, a [To_server] rule carrying
   delay.(a).(b) and a [From_server] rule carrying delay.(b).(a) —
   2·R² rules at most, each always firing (prob 1), each drawing its
   jitter deterministically per frame. *)
let rules p ~s ~clients =
  if s <= 0 then invalid_arg "Geo.rules: s must be > 0";
  let r = Array.length p.regions in
  let servers_in = Array.make r [] in
  for i = s - 1 downto 0 do
    servers_in.(region_of p i) <- i :: servers_in.(region_of p i)
  done;
  let clients_in = Array.make r [] in
  List.iter
    (fun c -> clients_in.(region_of p c) <- c :: clients_in.(region_of p c))
    (List.rev clients);
  let acc = ref [] in
  for a = r - 1 downto 0 do
    for b = r - 1 downto 0 do
      if clients_in.(a) <> [] && servers_in.(b) <> [] then begin
        acc :=
          Faults.rule ~dir:Faults.To_server ~servers:servers_in.(b)
            ~clients:clients_in.(a)
            (Faults.Latency
               { base = p.delay.(a).(b); jitter = p.jitter.(a).(b) })
          :: Faults.rule ~dir:Faults.From_server ~servers:servers_in.(b)
               ~clients:clients_in.(a)
               (Faults.Latency
                  { base = p.delay.(b).(a); jitter = p.jitter.(b).(a) })
          :: !acc
      end
    done
  done;
  !acc

let plan ?(seed = 0) ?(extra = []) p ~s ~clients =
  Faults.create ~seed (rules p ~s ~clients @ extra)

type outage = {
  region : int;
  cut : int list;
  from_ : float;
  until : float;
  rule : Faults.rule;
}

let outage p ~s ~clients =
  let region = region_count p - 1 in
  if region < 1 then
    invalid_arg
      (Printf.sprintf "Geo.outage: profile %s has one region, no other to cut \
                       it from" p.name);
  let cut, rest =
    List.partition
      (fun n -> region_of p n = region)
      (List.init s Fun.id @ clients)
  in
  let from_ = 0.05 and until = 0.30 in
  let rule = Faults.partition ~from_ ~until [ cut; rest ] in
  { region; cut; from_; until; rule }

let describe p =
  let b = Buffer.create 256 in
  Printf.bprintf b "%-16s %s\n" p.name p.description;
  let r = Array.length p.regions in
  Printf.bprintf b "  %-10s" "";
  Array.iter (fun n -> Printf.bprintf b " %12s" n) p.regions;
  Buffer.add_char b '\n';
  for a = 0 to r - 1 do
    Printf.bprintf b "  %-10s" p.regions.(a);
    for bcol = 0 to r - 1 do
      Printf.bprintf b " %5.1f+%-4.1fms"
        (1e3 *. p.delay.(a).(bcol))
        (1e3 *. p.jitter.(a).(bcol))
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b
