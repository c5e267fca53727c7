(* Live quickstart: the same W2R1 register as examples/quickstart.ml,
   but over real sockets instead of the simulator — five server daemons
   in this process, each on a Unix-domain socket, one writer and one
   reader doing genuine round trips, every operation checked for
   atomicity as it completes.

     dune exec examples/live_quickstart.exe *)

open Mwregister

let () =
  print_endline "== mwregister live quickstart ==";
  print_endline "";
  print_endline
    "Cluster: 5 real server daemons on Unix-domain sockets (1 may crash),";
  print_endline
    "running the paper's W2R1 register: two-round writes, one-round reads.";
  print_endline "";

  let cluster = Kv.Cluster.start ~groups:1 ~s:5 ~tol:1 () in
  let servers = Kv.Cluster.group cluster 0 in
  Fun.protect
    ~finally:(fun () -> Kv.Cluster.shutdown cluster)
    (fun () ->
      Array.iteri
        (fun i addr ->
          Format.printf "server %d listening on %a@." i Live.Cluster.pp_addr
            addr)
        (Live.Cluster.addrs servers);
      print_endline "";

      let res =
        Kv.Session.run ~register:Registry.fastread_w2r1 ~live_check:true
          ~cluster
          (Kv.Session.register_spec ~think:0.002 ~writers:1 ~readers:1 5)
      in

      Printf.printf "ran %d operations in %.1f ms (%.0f ops/s)\n"
        res.Kv.Session.ops
        (1e3 *. res.Kv.Session.duration)
        res.Kv.Session.throughput;
      Printf.printf "round trips: %.2f per write, %.2f per read\n"
        res.Kv.Session.write_rounds res.Kv.Session.read_rounds;
      print_endline "";

      let report = Option.get res.Kv.Session.online in
      Printf.printf "streaming checker: %d operations checked, peak window %d\n"
        report.Live.Check_sink.checked report.Live.Check_sink.peak_window;
      if Live.Check_sink.atomic report then
        print_endline "The history is atomic."
      else begin
        print_endline "ATOMICITY VIOLATION (this should never happen):";
        List.iter
          (fun (_, w) -> Format.printf "  %a@." Witness.pp w)
          report.Live.Check_sink.violations
      end;
      print_endline "";
      print_endline
        "Same algorithm body, same checker — only the endpoint changed from";
      print_endline
        "the discrete-event simulator to real sockets (lib/transport).")
