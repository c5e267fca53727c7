open Registers

exception Unavailable = Mux.Unavailable

(* The protocol algorithms stay key-blind: the key rides every round
   trip of the returned endpoint. *)
let endpoint h ~key =
  { Client_core.exec = (fun req k -> Mux.exec ~key h req k) }
