open Simulation

type t = {
  engine : Engine.t;
  topology : Topology.t;
  tolerance : int;
  latency : Latency.t;
}

let make ?(seed = 42) ?(latency = Latency.uniform ~lo:1.0 ~hi:10.0) ~s ~t ~w
    ~r () =
  if t < 0 || t >= s then invalid_arg "Env.make: need 0 <= t < s";
  {
    engine = Engine.create ~seed ();
    topology = Topology.make ~servers:s ~writers:w ~readers:r;
    tolerance = t;
    latency;
  }

let quorum_size t = t.topology.Topology.servers - t.tolerance

let s t = t.topology.Topology.servers
let t_ t = t.tolerance
let w t = t.topology.Topology.writers
let r t = t.topology.Topology.readers
