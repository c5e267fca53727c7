open Registers

exception Unavailable = Mux.Unavailable

let endpoint h = { Client_core.exec = (fun req k -> Mux.exec h req k) }

(* The same endpoint viewed through one register of the keyspace: the
   protocol algorithms stay key-blind, the key rides every round trip. *)
let keyed_endpoint h ~key =
  { Client_core.exec = (fun req k -> Mux.exec ~key h req k) }
