type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }

(* What a slot past [size] holds: an immediate, so the array keeps no
   popped element reachable.  Arrays are made with it, so [data] is
   never a flat float array and takes an ['a] of any kind. *)
let vacant () = Obj.magic 0

let grow t =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let ndata = Array.make ncap (vacant ()) in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.cmp t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.size && t.cmp t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t x =
  grow t;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    let last = t.data.(t.size) in
    t.data.(t.size) <- vacant ();
    if t.size > 0 then begin
      t.data.(0) <- last;
      sift_down t 0
    end;
    Some top
  end

let peek t = if t.size = 0 then None else Some t.data.(0)
