open Transport

(* A sharded keyspace deployment: [groups] independent register
   clusters, each [s] servers tolerating [tol] crashes, plus the
   placement ring that says which group owns which key.  Groups never
   talk to each other — per-key atomicity composes: every key lives
   entirely inside one group's quorum system, so the whole keyspace is
   atomic iff each register is (the property that lets groups scale
   independently). *)

type t = {
  groups : Cluster.t array;
  placement : Placement.t;
  s : int;
  tol : int;
}

let of_groups cls ~s ~tol =
  {
    groups = cls;
    placement = Placement.make ~groups:(Array.length cls);
    s;
    tol;
  }

let start ?faults ~groups ~s ~tol () =
  if groups < 1 then invalid_arg "Kv_cluster.start: groups must be >= 1";
  of_groups ~s ~tol
    (Array.init groups (fun _ -> Cluster.start ?faults ~s ~tol ()))

let connect ~addrs ~tol =
  of_groups ~s:(Array.length addrs) ~tol [| Cluster.connect ~addrs ~tol () |]

let group_count t = Array.length t.groups

let group t g = t.groups.(g)

let group_of t key = Placement.group_of t.placement key

let s t = t.s

let tolerance t = t.tol

let quorum t = t.s - t.tol

let shutdown t = Array.iter Cluster.shutdown t.groups
