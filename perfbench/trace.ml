(* Outside-in tracing of one client thread.

   The tracer wraps the {!Registers.Client_core.ctx} endpoints that
   {!Kv.Router.key_ctx} hands out, so every round trip the protocol
   algorithm issues becomes a child span of the op that issued it,
   timed from the [exec] call to the moment its quorum continuation
   fires.  No library code changes: the spans sit on the layer
   boundary the algorithms already call through.  One tracer belongs to
   one client thread, so it needs no locks; spans stay in memory until
   {!dump}. *)

open Registers
open Transport

type span = {
  op : int;  (** the op's id, shared by the op span and its round trips *)
  name : string;  (** ["read"]/["write"] or ["rt.query"]/["rt.update"] *)
  key : string;
  start : float;
  stop : float;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable op_id : int;
  mutable op_key : string;
  mutable rts : int;
  mutable frames : (string * Wire.req * (int * Wire.rep) list) list;
}

(* Every [frame_every]-th round trip's request and replies are kept, up
   to [max_frames], as workload-shaped input for the codec costing. *)
let frame_every = 16

let max_frames = 64

let create () = { spans = []; op_id = 0; op_key = ""; rts = 0; frames = [] }

let reset t =
  t.spans <- [];
  t.rts <- 0;
  t.frames <- []

let rt_name = function Wire.Query _ -> "rt.query" | Wire.Update _ -> "rt.update"

let wrap_endpoint t (ep : Client_core.endpoint) =
  {
    Client_core.exec =
      (fun req k ->
        let start = Clock.now () in
        ep.exec req (fun reps ->
            let stop = Clock.now () in
            t.spans <-
              { op = t.op_id; name = rt_name req; key = t.op_key; start; stop }
              :: t.spans;
            if t.rts mod frame_every = 0 && List.length t.frames < max_frames
            then t.frames <- (t.op_key, req, reps) :: t.frames;
            t.rts <- t.rts + 1;
            k reps));
  }

let wrap_ctx t (ctx : Client_core.ctx) =
  {
    ctx with
    Client_core.writer_ep = (fun i -> wrap_endpoint t (ctx.writer_ep i));
    reader_ep = (fun j -> wrap_endpoint t (ctx.reader_ep j));
  }

let begin_op t ~id ~key =
  t.op_id <- id;
  t.op_key <- key

let end_op t ~kind ~start ~stop =
  let name = match kind with `Read -> "read" | `Write -> "write" in
  t.spans <- { op = t.op_id; name; key = t.op_key; start; stop } :: t.spans

let is_rt s = String.starts_with ~prefix:"rt." s.name

(* Per-op breakdown over a set of spans: every round trip's duration,
   and each op's self time — its span minus the round trips it waited
   on (an op's round trips run one after another, never overlapping). *)
let breakdown spans =
  let rt_sum = Hashtbl.create 1024 in
  let rts =
    List.filter_map
      (fun s ->
        if is_rt s then begin
          let d = s.stop -. s.start in
          Hashtbl.replace rt_sum s.op
            (d +. Option.value ~default:0.0 (Hashtbl.find_opt rt_sum s.op));
          Some d
        end
        else None)
      spans
  in
  let ops = List.filter (fun s -> not (is_rt s)) spans in
  let self =
    List.map
      (fun s ->
        s.stop -. s.start
        -. Option.value ~default:0.0 (Hashtbl.find_opt rt_sum s.op))
      ops
  in
  let rt_per_op =
    List.map
      (fun s -> Option.value ~default:0.0 (Hashtbl.find_opt rt_sum s.op))
      ops
  in
  (Array.of_list rts, Array.of_list self, Array.of_list rt_per_op)

let dump path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"op\":%d,\"parent\":%s,\"name\":%S,\"key\":%S,\
             \"start\":%.9f,\"end\":%.9f}\n"
            s.op
            (if is_rt s then string_of_int s.op else "null")
            s.name s.key s.start s.stop)
        spans)
