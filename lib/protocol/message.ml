type ('req, 'rep) t =
  | Request of { rt : int; client : int; payload : 'req }
  | Reply of { rt : int; server : int; payload : 'rep }
