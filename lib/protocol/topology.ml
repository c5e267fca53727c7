type t = { servers : int; writers : int; readers : int }

let make ~servers ~writers ~readers =
  if servers < 2 then invalid_arg "Topology.make: need at least 2 servers";
  if writers < 1 then invalid_arg "Topology.make: need at least 1 writer";
  if readers < 1 then invalid_arg "Topology.make: need at least 1 reader";
  { servers; writers; readers }

let node_count t = t.servers + t.writers + t.readers

let server_node t i =
  if i < 0 || i >= t.servers then invalid_arg "Topology.server_node";
  i

let writer_node t i =
  if i < 0 || i >= t.writers then invalid_arg "Topology.writer_node";
  t.servers + i

let reader_node t i =
  if i < 0 || i >= t.readers then invalid_arg "Topology.reader_node";
  t.servers + t.writers + i

let server_nodes t = Array.init t.servers (fun i -> i)

let is_server t node = node >= 0 && node < t.servers

let is_client t node = node >= t.servers && node < node_count t

let proc_of_node t node =
  if is_server t node then None
  else if node < t.servers + t.writers then Some (Histories.Op.Writer (node - t.servers))
  else if node < node_count t then
    Some (Histories.Op.Reader (node - t.servers - t.writers))
  else None

let forbidden t ~src ~dst =
  (is_server t src && is_server t dst) || (is_client t src && is_client t dst)
