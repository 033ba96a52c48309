module Machine = Pmp_machine.Machine
module Sub = Pmp_machine.Submachine
module Task = Pmp_workload.Task
module Event = Pmp_workload.Event
module Sequence = Pmp_workload.Sequence
module Generators = Pmp_workload.Generators
module Allocator = Pmp_core.Allocator
module Placement = Pmp_core.Placement
module Mirror = Pmp_core.Mirror
module Engine = Pmp_sim.Engine
module Metrics = Pmp_sim.Metrics

let test_empty_sequence () =
  let m = Machine.create 4 in
  let r = Engine.run ~check:true (Pmp_core.Greedy.create m) (Sequence.of_events_exn []) in
  Alcotest.(check int) "no events" 0 r.Engine.events;
  Alcotest.(check int) "no load" 0 r.Engine.max_load;
  Alcotest.(check int) "no optimal" 0 r.Engine.optimal_load

let test_rejects_oversized_sequence () =
  let m = Machine.create 4 in
  let seq = Sequence.of_events_exn [ Event.arrive (Task.make ~id:0 ~size:8) ] in
  Alcotest.check_raises "too big"
    (Invalid_argument "Engine.run: sequence has tasks larger than the machine")
    (fun () -> ignore (Engine.run (Pmp_core.Greedy.create m) seq))

let test_trajectories () =
  let m = Machine.create 4 in
  let seq = Generators.figure1 () in
  let r = Engine.run ~check:true (Pmp_core.Greedy.create m) seq in
  Alcotest.(check (array int)) "load after each event" [| 1; 1; 1; 1; 1; 1; 2 |]
    r.Engine.load_trajectory;
  Alcotest.(check (array int)) "opt after each event" [| 1; 1; 1; 1; 1; 1; 1 |]
    r.Engine.opt_trajectory;
  Alcotest.(check (float 1e-9)) "max ratio over time" 2.0 (Engine.max_ratio_over_time r)

let test_checked_catches_cheater () =
  (* an allocator that reports placements of the wrong size *)
  let m = Machine.create 4 in
  let cheater : Allocator.t =
    let table = Pmp_core.Ptable.create 4 in
    {
      Allocator.name = "cheater";
      machine = m;
      assign =
        (fun task ->
          (* always claims a single PE regardless of the task's size *)
          let p = Placement.direct (Sub.make m ~order:0 ~index:0) in
          Pmp_core.Ptable.replace table task p;
          { Allocator.placement = p; moves = [] });
      remove = (fun id -> ignore (Pmp_core.Ptable.remove table id));
      table;
      realloc_events = (fun () -> 0);
      export = Allocator.no_export "cheater";
    }
  in
  let seq = Sequence.of_events_exn [ Event.arrive (Task.make ~id:0 ~size:2) ] in
  Alcotest.(check bool) "checked mode raises" true
    (try
       ignore (Engine.run ~check:true cheater seq);
       false
     with Invalid_argument _ -> true)

let test_mirror_basics () =
  let m = Machine.create 8 in
  let mir = Mirror.create m in
  let t0 = Task.make ~id:0 ~size:4 in
  let p0 = Placement.direct (Sub.make m ~order:2 ~index:0) in
  Mirror.apply_assign mir t0 { Allocator.placement = p0; moves = [] };
  Alcotest.(check int) "active" 1 (Mirror.num_active mir);
  Alcotest.(check int) "active size" 4 (Mirror.active_size mir);
  Alcotest.(check int) "max load" 1 (Mirror.max_load mir);
  Alcotest.(check bool) "placement" true
    (match Mirror.placement mir 0 with Some p -> Placement.equal p p0 | None -> false);
  (* a move relocates it *)
  let p1 = Placement.direct (Sub.make m ~order:2 ~index:1) in
  let t1 = Task.make ~id:1 ~size:4 in
  Mirror.apply_assign mir t1
    {
      Allocator.placement = p0;
      moves = [ { Allocator.task = t0; from_ = p0; to_ = p1 } ];
    };
  Alcotest.(check int) "still max 1 after relocation" 1 (Mirror.max_load mir);
  Mirror.apply_remove mir 0;
  Mirror.apply_remove mir 1;
  Alcotest.(check int) "drained" 0 (Mirror.num_active mir);
  Alcotest.(check int) "no load" 0 (Mirror.max_load mir)

let test_mirror_rejects_bad_moves () =
  let m = Machine.create 4 in
  let mir = Mirror.create m in
  let t0 = Task.make ~id:0 ~size:1 in
  let p_a = Placement.direct (Sub.make m ~order:0 ~index:0) in
  let p_b = Placement.direct (Sub.make m ~order:0 ~index:1) in
  Mirror.apply_assign mir t0 { Allocator.placement = p_a; moves = [] };
  Alcotest.check_raises "move disagrees on source"
    (Invalid_argument "Mirror.apply_assign: move disagrees on old placement")
    (fun () ->
      Mirror.apply_assign mir (Task.make ~id:1 ~size:1)
        {
          Allocator.placement = p_b;
          moves = [ { Allocator.task = t0; from_ = p_b; to_ = p_a } ];
        });
  Alcotest.check_raises "duplicate arrival"
    (Invalid_argument "Mirror.apply_assign: task already active") (fun () ->
      Mirror.apply_assign mir t0 { Allocator.placement = p_a; moves = [] })

let test_mirror_submachine_queries () =
  let m = Machine.create 8 in
  let mir = Mirror.create m in
  let assign id size order index =
    Mirror.apply_assign mir (Task.make ~id ~size)
      {
        Allocator.placement = Placement.direct (Sub.make m ~order ~index);
        moves = [];
      }
  in
  assign 0 2 1 0 (* leaves 0-1 *);
  assign 1 1 0 1 (* leaf 1 *);
  assign 2 4 2 1 (* leaves 4-7 *);
  let left_quarter = Sub.make m ~order:2 ~index:0 in
  Alcotest.(check int) "max in left quarter" 2 (Mirror.max_load_in mir left_quarter);
  Alcotest.(check int) "assigned size in left quarter" 3
    (Mirror.assigned_size_in mir left_quarter);
  Alcotest.(check int) "tasks inside left quarter" 2
    (List.length (Mirror.tasks_inside mir left_quarter));
  (* a submachine smaller than a covering task intersects it *)
  let leaf6 = Sub.make m ~order:0 ~index:6 in
  Alcotest.(check int) "covering task counted" 4 (Mirror.assigned_size_in mir leaf6);
  Alcotest.(check int) "but not inside" 0 (List.length (Mirror.tasks_inside mir leaf6))

let test_metrics_summary () =
  let m = Machine.create 4 in
  let r = Engine.run ~check:true (Pmp_core.Greedy.create m) (Generators.figure1 ()) in
  let s = Metrics.summarize r in
  Alcotest.(check int) "max load" 2 s.Metrics.max_load;
  Alcotest.(check (float 1e-9)) "end ratio" 2.0 s.Metrics.end_ratio;
  Alcotest.(check bool) "mean load sensible" true
    (s.Metrics.mean_load > 0.0 && s.Metrics.mean_load <= 2.0);
  Alcotest.(check bool) "imbalance >= 1" true (s.Metrics.imbalance >= 1.0)

let test_fragmentation_metric () =
  let m = Machine.create 4 in
  let r = Engine.run ~check:true (Pmp_core.Greedy.create m) (Generators.figure1 ()) in
  (* greedy ends with load 2 against an instantaneous optimum of 1 *)
  Alcotest.(check (float 1e-9)) "fragmentation 1.0" 1.0 (Metrics.fragmentation r);
  let r_opt = Engine.run ~check:true (Pmp_core.Optimal.create m) (Generators.figure1 ()) in
  Alcotest.(check (float 1e-9)) "optimal unfragmented" 0.0 (Metrics.fragmentation r_opt)

let test_jain_fairness () =
  Alcotest.(check (float 1e-9)) "even" 1.0 (Metrics.jain_fairness [| 2.; 2.; 2. |]);
  Alcotest.(check (float 1e-9)) "empty" 1.0 (Metrics.jain_fairness [||]);
  Alcotest.(check (float 1e-9)) "zeros" 1.0 (Metrics.jain_fairness [| 0.; 0. |]);
  Alcotest.(check (float 1e-9)) "one hog of four" 0.25
    (Metrics.jain_fairness [| 1.; 0.; 0.; 0. |]);
  let mixed = Metrics.jain_fairness [| 1.; 2.; 3. |] in
  Alcotest.(check bool) "strictly between" true (mixed > 0.33 && mixed < 1.0)

(* Conservation: at the end of any run, the sum of per-PE loads equals
   the cumulative size of the active tasks (each task contributes
   exactly its size in PE-coverage). *)
let prop_load_conservation =
  QCheck.Test.make ~name:"engine: sum of leaf loads = active size" ~count:100
    (Helpers.seq_params ~max_levels:5 ~max_steps:150 ())
    (fun (levels, seed, steps) ->
      let m = Machine.of_levels levels in
      let n = Machine.size m in
      let seq = Helpers.random_sequence ~seed ~machine_size:n ~steps in
      List.for_all
        (fun make ->
          let alloc : Allocator.t = make () in
          let r = Engine.run ~check:true alloc seq in
          let coverage = Array.fold_left ( + ) 0 r.Engine.final_leaf_loads in
          let active =
            List.fold_left
              (fun acc ((t : Task.t), _) -> acc + t.Task.size)
              0
              (Allocator.placements alloc)
          in
          coverage = active)
        [
          (fun () -> Pmp_core.Greedy.create m);
          (fun () -> Pmp_core.Copies.create m);
          (fun () -> Pmp_core.Optimal.create m);
          (fun () ->
            Pmp_core.Periodic.create m ~d:(Pmp_core.Realloc.Budget 1));
        ])

(* The engine's mirror agrees with a naive replay for any allocator. *)
let prop_leaf_loads_match_naive =
  QCheck.Test.make ~name:"engine final leaf loads match naive replay" ~count:100
    (Helpers.seq_params ~max_levels:5 ~max_steps:150 ())
    (fun (levels, seed, steps) ->
      let m = Machine.of_levels levels in
      let n = Machine.size m in
      let seq = Helpers.random_sequence ~seed ~machine_size:n ~steps in
      let alloc = Pmp_core.Greedy.create m in
      let r = Engine.run ~check:true alloc seq in
      (* replay: recompute loads from the allocator's final placements *)
      let naive = Helpers.Naive_loads.create n in
      List.iter
        (fun ((_ : Task.t), (p : Placement.t)) ->
          Helpers.Naive_loads.add naive p.Placement.sub 1)
        (Allocator.placements alloc);
      naive.Helpers.Naive_loads.loads = r.Engine.final_leaf_loads)

let suite =
  [
    Alcotest.test_case "empty sequence" `Quick test_empty_sequence;
    Alcotest.test_case "oversized rejected" `Quick test_rejects_oversized_sequence;
    Alcotest.test_case "trajectories" `Quick test_trajectories;
    Alcotest.test_case "checked mode catches cheater" `Quick test_checked_catches_cheater;
    Alcotest.test_case "mirror basics" `Quick test_mirror_basics;
    Alcotest.test_case "mirror rejects bad moves" `Quick test_mirror_rejects_bad_moves;
    Alcotest.test_case "mirror submachine queries" `Quick test_mirror_submachine_queries;
    Alcotest.test_case "metrics summary" `Quick test_metrics_summary;
    Alcotest.test_case "fragmentation metric" `Quick test_fragmentation_metric;
    Alcotest.test_case "jain fairness" `Quick test_jain_fairness;
  ]
  @ Helpers.qtests [ prop_load_conservation; prop_leaf_loads_match_naive ]
