(* The round-trip time a Geo profile promises, for comparison with the
   round trips the mux actually delivers.

   One link's nominal round trip is both legs' base delay plus both legs'
   mean uniform jitter (half its bound).  A round trip completes on the
   quorum-th fastest server, so a client's nominal is the [s - tol]-th
   smallest of its per-server figures; the profile's nominal is the mean
   over the clients that run the workload. *)

open Transport

let link profile ~client ~server =
  Geo.base profile ~src:client ~dst:server
  +. Geo.base profile ~src:server ~dst:client
  +. ((Geo.jitter_bound profile ~src:client ~dst:server
      +. Geo.jitter_bound profile ~src:server ~dst:client)
     /. 2.0)

let client_nominal profile ~s ~tol client =
  let per_server = Array.init s (fun server -> link profile ~client ~server) in
  Array.sort Float.compare per_server;
  per_server.(s - tol - 1)

let nominal profile ~s ~tol ~clients =
  match clients with
  | [] -> invalid_arg "Rtt.nominal: no clients"
  | _ ->
    List.fold_left (fun acc c -> acc +. client_nominal profile ~s ~tol c) 0.0
      clients
    /. float_of_int (List.length clients)

(* How far the measured median round trip overshoots the promise. *)
let overshoot profile ~s ~tol ~clients ~rt_p50 =
  rt_p50 -. nominal profile ~s ~tol ~clients
