open Protocol
open Simulation

type spec = {
  writers : int;
  readers : int;
  writes_per_writer : int;
  reads_per_reader : int;
  mean_think : float;
  start_spread : float;
  seed : int;
}

let default =
  {
    writers = 2;
    readers = 2;
    writes_per_writer = 3;
    reads_per_reader = 5;
    mean_think = 10.0;
    start_spread = 5.0;
    seed = 42;
  }

let steps_for rng ~count ~op ~mean_think =
  let rec go n acc =
    if n <= 0 then List.rev acc
    else
      let think = Rng.exponential rng ~mean:mean_think in
      let acc = if acc = [] then [ op ] else op :: Runtime.Think think :: acc in
      go (n - 1) acc
  in
  go count []

let plans spec =
  let rng = Rng.create ~seed:spec.seed in
  let writer_plans =
    List.init spec.writers (fun i ->
        {
          Runtime.proc = Histories.Op.Writer i;
          start_at = Rng.float rng ~bound:spec.start_spread;
          steps =
            steps_for rng ~count:spec.writes_per_writer ~op:Runtime.Write
              ~mean_think:spec.mean_think;
        })
  in
  let reader_plans =
    List.init spec.readers (fun i ->
        {
          Runtime.proc = Histories.Op.Reader i;
          start_at = Rng.float rng ~bound:spec.start_spread;
          steps =
            steps_for rng ~count:spec.reads_per_reader ~op:Runtime.Read
              ~mean_think:spec.mean_think;
        })
  in
  writer_plans @ reader_plans
