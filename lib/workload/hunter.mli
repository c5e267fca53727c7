(** Violation hunting.

    Possibility results are ∀-schedule statements (checked by sampling
    and by {!Exhaustive} sweeps); impossibility results are ∃-schedule
    statements — *some* execution breaks every implementation at that
    design point.  The hunter searches for that execution: it iterates
    schedule shapes (benign, random within-budget skips, crashes, the
    writer-inversion pattern, the certificate-starvation attack) across
    seeds until the checker produces a witness or the budget runs out.

    A [None] answer is evidence, not proof, of possibility; a [Some]
    answer is a replayable counterexample (shape + seed are enough to
    reproduce it deterministically). *)

open Protocol

type shape = Benign | Skips | Crash | Inversion | Starvation

val all_shapes : shape list

type found = {
  shape : shape;
  seed : int;
  runs_tried : int;
  witness : Checker.Witness.t;
  mwa_failure : string option;
}

val mixed_plans : w:int -> r:int -> ops:int -> Runtime.plan list
(** The simulator's standard mixed schedule: writer [i] does [ops]
    writes from time [3i], [10 + 7i] apart; reader [j] does [2 × ops]
    reads from time [1 + j], [8 + 5j] apart. *)

val run :
  register:Register_intf.t ->
  s:int ->
  t:int ->
  w:int ->
  r:int ->
  seed:int ->
  shape ->
  Runtime.outcome
(** One run of a shape, unchecked.  [Benign], [Skips] and [Crash] run
    {!mixed_plans} with 3 writes per writer under a latency model and
    adversary drawn from [seed]; [Inversion] runs the writer-inversion
    pattern (writer [w-1] writes, then writer 0, then reader 0 reads);
    [Starvation] is {!Threshold.attack}'s certificate-starvation
    schedule, which ignores [seed] and [w]. *)

val run_shape :
  register:Register_intf.t ->
  s:int ->
  t:int ->
  w:int ->
  r:int ->
  seed:int ->
  shape ->
  (Checker.Witness.t option * string option)
(** {!run} checked: the atomicity witness (if violated) and the first
    MWA property violated (if any). *)

val hunt :
  ?shapes:shape list ->
  ?seeds_per_shape:int ->
  ?pool:Parallel.Pool.t ->
  register:Register_intf.t ->
  s:int ->
  t:int ->
  w:int ->
  r:int ->
  unit ->
  (found option * int)
(** Search; returns the first find and the total runs executed.  With
    a [pool] of more than one domain the shape × seed sweep fans out
    over its domains; without one, or with a one-domain pool, the hunt
    runs sequentially and stops at the first find.  The reported
    find (shape, seed, [runs_tried]) is the one the sequential hunt
    would report.  A parallel hunt that finds a witness executes the
    whole budget instead of stopping early, so the run count returned on
    success equals [runs_tried] (as in the sequential case), not the
    work performed. *)

val pp_found : Format.formatter -> found -> unit
