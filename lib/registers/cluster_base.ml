open Protocol
open Simulation

type t = {
  ctl : Control.t;
  writers : Client_core.writer_fn array;
  readers : Client_core.reader_fn array;
}

let create ?(name = "Cluster_base.create") ?max_writers (env : Env.t)
    (algo : Client_core.algo) =
  (match max_writers with
  | Some m when Env.w env > m ->
    invalid_arg
      (Printf.sprintf "%s accepts at most %d writer(s), got %d" name m (Env.w env))
  | _ -> ());
  let topo = env.Env.topology in
  let net = Network.create env.Env.engine ~latency:env.Env.latency in
  Network.forbid net (fun ~src ~dst -> Topology.forbidden topo ~src ~dst);
  for i = 0 to topo.Topology.servers - 1 do
    Server.attach ~net ~node:(Topology.server_node topo i)
      ~handler:(Replica.handle (Replica.create ()))
  done;
  let servers = Topology.server_nodes topo in
  let quorum = Env.quorum_size env in
  let endpoints n node =
    Array.init n (fun i ->
        let ep = Round_trip.create ~net ~node:(node topo i) ~servers ~quorum in
        { Client_core.exec = Round_trip.exec ep })
  in
  let writer_eps = endpoints topo.Topology.writers Topology.writer_node in
  let reader_eps = endpoints topo.Topology.readers Topology.reader_node in
  (* The simulator endpoints as the backend-agnostic client context, so
     the Client_core algorithms run unchanged on either the
     discrete-event engine or the live TCP transport. *)
  let ctx =
    {
      Client_core.writer_ep = Array.get writer_eps;
      reader_ep = Array.get reader_eps;
      s = Env.s env;
      t = Env.t_ env;
      r = Env.r env;
    }
  in
  let ctl = Control.of_network net ~topology:topo in
  let writers =
    Array.init (Env.w env) (fun i -> algo.Client_core.new_writer ctx ~writer:i)
  in
  let readers =
    Array.init (Env.r env) (fun i -> algo.Client_core.new_reader ctx ~reader:i)
  in
  { ctl; writers; readers }

let control c = c.ctl

let write c ~writer ~value ~k = c.writers.(writer) ~payload:value ~k

let read c ~reader ~k = c.readers.(reader) ~k

let register ~name ~design_point ?max_writers algo : Register_intf.t =
  (module struct
    let name = name
    let design_point = design_point

    type cluster = t

    let create env = create ~name ?max_writers env algo
    let control = control
    let write = write
    let read = read
  end)
