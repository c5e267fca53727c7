(* KV quickstart: the register stack generalised to a sharded keyspace.

   Two shard groups of three servers each run on loopback; a consistent
   hash ring assigns every key to exactly one group.  Two clients first
   operate by hand on keys that land on *different* shards — showing the
   per-key W2R2 register running unchanged under the router — and then a
   small YCSB mix-A session drives the whole keyspace and has the
   atomicity checker pass verdicts on the hottest keys.

     dune exec examples/kv_quickstart.exe *)

open Mwregister
module Client_core = Registers.Client_core

let () =
  print_endline "== mwregister kv quickstart ==";
  print_endline "";
  print_endline
    "Keyspace: 2 shard groups x 3 servers (each tolerating 1 crash); a";
  print_endline
    "consistent-hash ring places every key on exactly one group, where it";
  print_endline "is one more multi-writer ABD register.";
  print_endline "";

  let kc = Kv.Cluster.start ~groups:2 ~s:3 ~tol:1 () in
  Fun.protect ~finally:(fun () -> Kv.Cluster.shutdown kc) @@ fun () ->
  (* Pick one key per shard group so the two clients demonstrably cross
     different quorum systems. *)
  let key_in g =
    let rec scan i =
      let k = Printf.sprintf "demo%d" i in
      if Kv.Cluster.group_of kc k = g then k else scan (i + 1)
    in
    scan 0
  in
  let k0 = key_in 0 and k1 = key_in 1 in
  Printf.printf "key %S -> shard group 0; key %S -> shard group 1\n" k0 k1;
  print_endline "";

  let router = Kv.Router.create ~clients:2 kc in
  Fun.protect ~finally:(fun () -> Kv.Router.shutdown router) @@ fun () ->
  let algo = Registry.client_algo Registry.abd_mwmr in
  let with_client index key payload =
    let cl = Kv.Router.client router ~index in
    Fun.protect ~finally:(fun () -> Kv.Router.close_client cl) @@ fun () ->
    let ctx = Kv.Router.key_ctx cl key in
    let write = algo.Client_core.new_writer ctx ~writer:index in
    write ~payload ~k:(fun _ -> ());
    let read = algo.Client_core.new_reader ctx ~reader:index in
    let got = ref min_int in
    read ~k:(fun v _ -> got := v);
    Printf.printf "client %d: wrote %S := %d, read back %d (shard %d)\n"
      index key payload !got (Kv.Cluster.group_of kc key)
  in
  with_client 0 k0 111;
  with_client 1 k1 222;
  print_endline "";

  print_endline
    "Now a YCSB mix-A session (50/50 reads and writes, zipfian skew) over";
  print_endline "200 keys, with per-key atomicity verdicts on the 4 hottest:";
  print_endline "";
  let res =
    Kv.Session.run ~cluster:kc
      {
        Kv.Session.default_spec with
        roles = Kv.Session.Mixed 4;
        ops_per_client = 50;
        keys = 200;
        sample_keys = 4;
        seed = 7;
      }
  in
  Printf.printf "ran %d operations in %.1f ms (%.0f ops/s)\n"
    res.Kv.Session.ops
    (1e3 *. res.Kv.Session.duration)
    res.Kv.Session.throughput;
  Printf.printf "per-group operations: %s\n"
    (String.concat " "
       (Array.to_list (Array.map string_of_int res.Kv.Session.group_ops)));
  List.iter
    (fun v ->
      Printf.printf "key %-13s %3d ops  %s\n" v.Kv.Session.vkey
        v.Kv.Session.vops
        (if v.Kv.Session.atomic then "atomic" else "VIOLATION"))
    res.Kv.Session.verdicts;
  print_endline "";
  print_endline
    "Same protocol bodies, same checker — the keyspace is just many";
  print_endline "registers behind a hash ring."
