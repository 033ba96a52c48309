(* A day in the life of a time-shared 256-PE partitionable machine:
   users come and go all day (stationary churn, oversubscribed 1.5x),
   and we compare how every allocator in the library manages the
   per-PE thread counts — plus what each user's slowdown would be
   under round-robin time-sharing of the final allocation.

     dune exec examples/timeshared_cluster.exe [seed] *)

module Machine = Pmp_machine.Machine
module Sm = Pmp_prng.Splitmix64
module Generators = Pmp_workload.Generators
module Engine = Pmp_sim.Engine
module Metrics = Pmp_sim.Metrics
module Scheduler = Pmp_sim.Scheduler
module Allocator = Pmp_core.Allocator
module Realloc = Pmp_core.Realloc
module Table = Pmp_util.Table

let n = 256
let steps = 5_000

let contenders machine seed =
  [
    Pmp_core.Optimal.create machine;
    Pmp_core.Periodic.create machine ~d:(Realloc.Budget 1);
    Pmp_core.Periodic.create machine ~d:(Realloc.Budget 2);
    Pmp_core.Periodic.create machine ~d:(Realloc.Budget 4);
    Pmp_core.Copies.create machine;
    Pmp_core.Greedy.create machine;
    Pmp_core.Randomized.create machine ~rng:(Sm.create (seed + 1));
    Pmp_core.Baselines.leftmost_always machine;
    Pmp_core.Baselines.worst_fit machine;
  ]

let slowdown_of_final machine (alloc : Allocator.t) =
  (* time-share whatever is still running at the end of the day *)
  let jobs =
    List.map
      (fun (task, (p : Pmp_core.Placement.t)) ->
        { Scheduler.task; sub = p.Pmp_core.Placement.sub; work = 100.0 })
      (Allocator.placements alloc)
  in
  Scheduler.max_slowdown (Scheduler.simulate machine jobs)

let () =
  let seed =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2024
  in
  let machine = Machine.create n in
  let g = Sm.create seed in
  let seq =
    Generators.churn g ~machine_size:n ~steps ~target_util:1.5 ~max_order:6
      ~size_bias:0.6
  in
  let l_star = Pmp_workload.Sequence.optimal_load seq ~machine_size:n in
  Printf.printf
    "Workload: %d events on %d PEs (seed %d), peak demand %d PEs, L* = %d\n\n"
    (Pmp_workload.Sequence.length seq)
    n seed
    (Pmp_workload.Sequence.peak_active_size seq)
    l_star;
  let table =
    Table.create ~title:"Allocator comparison (churn, oversubscribed 1.5x)"
      [ "allocator"; "max load"; "load/L*"; "p99"; "reallocs"; "moved";
        "final slowdown" ]
  in
  let cost =
    Pmp_sim.Cost.make (Pmp_machine.Topology.create Pmp_machine.Topology.Tree machine)
  in
  List.iter
    (fun alloc ->
      let r = Engine.run ~cost alloc seq in
      let s = Metrics.summarize r in
      Table.add_row table
        [
          r.Engine.allocator_name;
          string_of_int r.Engine.max_load;
          Table.fmt_ratio r.Engine.ratio;
          Table.fmt_float s.Metrics.p99_load;
          string_of_int r.Engine.realloc_events;
          string_of_int r.Engine.tasks_moved;
          Table.fmt_ratio (slowdown_of_final machine alloc);
        ])
    (contenders machine seed);
  Table.print table;
  print_newline ();
  print_endline
    "Reading the table: d = 0 (optimal) pins load to L* at maximal\n\
     migration volume; growing d trades load for stability; greedy and\n\
     the randomized allocator never move anyone but carry more threads\n\
     per PE, which round-robin time-sharing turns into user slowdown."
