type t = Rng.t -> src:int -> dst:int -> float

let sample t rng ~src ~dst = t rng ~src ~dst

let constant d _ ~src:_ ~dst:_ = d

let uniform ~lo ~hi rng ~src:_ ~dst:_ = Rng.float_in_range rng ~lo ~hi

let exponential ~mean rng ~src:_ ~dst:_ = Rng.exponential rng ~mean

let lognormal_like ~median ~spread =
  assert (spread >= 1.0);
  fun rng ~src:_ ~dst:_ ->
    let g = Rng.float_in_range rng ~lo:(-1.0) ~hi:1.0 in
    median *. (spread ** g)

let geo ~region_of ~local ~cross ~jitter rng ~src ~dst =
  let base = if region_of src = region_of dst then local else cross in
  base +. Rng.float rng ~bound:jitter

let matrix ~region_of ~delay ~jitter =
  let regions = Array.length delay in
  if regions = 0 then invalid_arg "Latency.matrix: empty delay matrix";
  let square m = Array.for_all (fun row -> Array.length row = regions) m in
  if Array.length jitter <> regions || not (square delay) || not (square jitter)
  then invalid_arg "Latency.matrix: delay/jitter must be equal square matrices";
  fun rng ~src ~dst ->
    let a = region_of src and b = region_of dst in
    (* The jitter draw happens even at bound 0 (it returns 0.0), so
       the random stream's consumption does not depend on which
       region pair a message crosses. *)
    delay.(a).(b) +. Rng.float rng ~bound:jitter.(a).(b)
