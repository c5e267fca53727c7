open Transport

(* A sharded keyspace deployment: [groups] independent register
   clusters, each [s] servers tolerating [tol] crashes, plus the
   placement ring that says which group owns which key.  Groups never
   talk to each other — per-key atomicity composes: every key lives
   entirely inside one group's quorum system, so the whole keyspace is
   atomic iff each register is (the property that lets shards scale
   independently). *)

type t = {
  groups : Cluster.t array;
  placement : Placement.t;
  s : int;
  tol : int;
}

let start ?faults ?shards ?vnodes ~groups ~s ~tol () =
  if groups < 1 then invalid_arg "Kv_cluster.start: groups must be >= 1";
  let cls =
    Array.init groups (fun _ -> Cluster.start ?faults ?shards ~s ~tol ())
  in
  { groups = cls; placement = Placement.make ?vnodes ~groups (); s; tol }

let group_count t = Array.length t.groups

let group t g = t.groups.(g)

let group_of t key = Placement.group_of t.placement key

let s t = t.s

let tolerance t = t.tol

let quorum t = t.s - t.tol

let shutdown t = Array.iter Cluster.shutdown t.groups
