(* Live quickstart: the same W2R1 register as examples/quickstart.ml,
   but over real TCP sockets instead of the simulator — five server
   daemons on loopback, one writer and one reader doing genuine network
   round trips, and the recorded history linearized.

     dune exec examples/live_quickstart.exe *)

open Mwregister

let () =
  print_endline "== mwregister live quickstart ==";
  print_endline "";
  print_endline
    "Cluster: 5 real server daemons on 127.0.0.1 (1 may crash), running the";
  print_endline
    "paper's W2R1 register over TCP: two-round writes, one-round fast reads.";
  print_endline "";

  let cluster = Kv.Cluster.start ~groups:1 ~s:5 ~tol:1 () in
  let servers = Kv.Cluster.group cluster 0 in
  Fun.protect
    ~finally:(fun () -> Kv.Cluster.shutdown cluster)
    (fun () ->
      Array.iteri
        (fun i _ -> Printf.printf "server %d listening on 127.0.0.1:%d\n" i
            (Live.Cluster.port servers i))
        (Live.Cluster.addrs servers);
      print_endline "";

      let res =
        Kv.Session.run ~register:Registry.fastread_w2r1 ~cluster
          (Kv.Session.register_spec ~think:0.002 ~writers:1 ~readers:1 5)
      in
      let h = Kv.Session.history res in

      Printf.printf "ran %d operations in %.1f ms (%.0f ops/s)\n"
        (History.length h)
        (1e3 *. res.Kv.Session.duration)
        (float_of_int (History.length h) /. res.Kv.Session.duration);
      Printf.printf "round trips: %.2f per write, %.2f per read\n"
        res.Kv.Session.write_rounds res.Kv.Session.read_rounds;
      print_endline "";

      (match Atomicity.linearization h with
      | Some order ->
        print_endline "The history is atomic; one witnessing linearization:";
        List.iter (fun o -> Format.printf "  %a@." Op.pp o) order
      | None ->
        print_endline "ATOMICITY VIOLATION (this should never happen):";
        (match Atomicity.check h with
        | Error w -> Format.printf "  %a@." Witness.pp w
        | Ok () -> ()));
      print_endline "";
      print_endline
        "Same algorithm body, same checker — only the endpoint changed from";
      print_endline
        "the discrete-event simulator to real sockets (lib/transport).")
