(** Request/reply framing for client–server round-trips.

    Every protocol message is either a client's request — a query or an
    update in the vocabulary of §2.2 — or a server's reply, both tagged
    with a per-client round-trip sequence number so a client can match
    replies to the round-trip that solicited them. *)

type ('req, 'rep) t =
  | Request of { rt : int; client : int; payload : 'req }
  | Reply of { rt : int; server : int; payload : 'rep }
