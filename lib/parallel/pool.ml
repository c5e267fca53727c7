type t = { domains : int }

let default_domains () =
  match Sys.getenv_opt "MWREG_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* Hardware ceiling: spawning more domains than the machine has cores
   never helps and usually hurts — the surplus domains only add GC
   coordination and context-switch traffic (on a 1-core container an
   oversubscribed "parallel" sweep measured 2× slower than sequential).
   Requested sizes mean *up to* this many workers. *)
let hw_cap () = max 1 (Domain.recommended_domain_count ())

let create ?domains () =
  let n = match domains with Some n -> n | None -> default_domains () in
  { domains = max 1 (min n (hw_cap ())) }

let domains t = t.domains

(* Run tasks 0..n-1 by pulling indices from a mutex-protected cursor.
   After any failure the cursor stops handing out work; the failure with
   the smallest task index among those executed wins, so the re-raised
   exception does not depend on domain scheduling. *)
let run_tasks pool n f =
  if n > 0 then begin
    let workers = min pool.domains n in
    (* Inline fallback: a domain spawn + join costs far more than a
       couple of typical tasks, so batches too small to amortise it run
       in the caller.  [workers <= 1] lands here too, keeping the
       degenerate pool identical to the old sequential loop. *)
    if workers <= 1 || n <= 2 then
      for i = 0 to n - 1 do
        f i
      done
    else begin
      let m = Mutex.create () in
      let next = ref 0 in
      let failed = ref None in
      let take () =
        Mutex.lock m;
        let i = if !failed = None then !next else n in
        if i < n then next := i + 1;
        Mutex.unlock m;
        if i < n then Some i else None
      in
      let record i exn bt =
        Mutex.lock m;
        (match !failed with
        | Some (j, _, _) when j <= i -> ()
        | _ -> failed := Some (i, exn, bt));
        Mutex.unlock m
      in
      let rec worker () =
        match take () with
        | None -> ()
        | Some i ->
          (try f i with exn -> record i exn (Printexc.get_raw_backtrace ()));
          worker ()
      in
      let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join spawned;
      match !failed with
      | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
      | None -> ()
    end
  end

let map pool f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
    let input = Array.of_list xs in
    let n = Array.length input in
    let out = Array.make n None in
    (* Each slot is written by exactly one task and read only after the
       joins in [run_tasks], so the accesses are race-free. *)
    run_tasks pool n (fun i -> out.(i) <- Some (f input.(i)));
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) out)

let map_reduce pool ~map:fm ~reduce ~init xs =
  List.fold_left reduce init (map pool fm xs)
