module Machine = Pmp_machine.Machine
module Sub = Pmp_machine.Submachine
module Task = Pmp_workload.Task
module Sequence = Pmp_workload.Sequence
module Randomized = Pmp_core.Randomized
module Bounds = Pmp_core.Bounds
module Allocator = Pmp_core.Allocator
module Placement = Pmp_core.Placement
module Engine = Pmp_sim.Engine
module Sm = Pmp_prng.Splitmix64

let test_placement_legal () =
  let m = Machine.create 16 in
  let alloc = Randomized.create m ~rng:(Sm.create 1) in
  for id = 0 to 199 do
    let size = 1 lsl (id mod 5) in
    let p = (alloc.Allocator.assign (Task.make ~id ~size)).Allocator.placement in
    Alcotest.(check int)
      (Printf.sprintf "task %d size" id)
      size
      (Sub.size p.Placement.sub)
  done

let test_determinism_by_seed () =
  let m = Machine.create 16 in
  let run seed =
    let alloc = Randomized.create m ~rng:(Sm.create seed) in
    List.init 50 (fun id ->
        let p = (alloc.Allocator.assign (Task.make ~id ~size:2)).Allocator.placement in
        Sub.first_leaf p.Placement.sub)
  in
  Alcotest.(check (list int)) "same seed, same placements" (run 5) (run 5);
  Alcotest.(check bool) "different seed differs" true (run 5 <> run 6)

let test_spread () =
  (* uniform placement must hit every slot eventually *)
  let m = Machine.create 8 in
  let alloc = Randomized.create m ~rng:(Sm.create 3) in
  let seen = Array.make 8 false in
  for id = 0 to 199 do
    let p = (alloc.Allocator.assign (Task.make ~id ~size:1)).Allocator.placement in
    seen.(Sub.first_leaf p.Placement.sub) <- true
  done;
  Array.iteri
    (fun i hit -> Alcotest.(check bool) (Printf.sprintf "leaf %d" i) true hit)
    seen

let test_remove () =
  let m = Machine.create 4 in
  let alloc = Randomized.create m ~rng:(Sm.create 1) in
  ignore (alloc.Allocator.assign (Task.make ~id:0 ~size:1));
  alloc.Allocator.remove 0;
  Alcotest.(check int) "empty" 0 (List.length (Allocator.placements alloc));
  Alcotest.check_raises "unknown" (Invalid_argument "Randomized.remove: unknown task")
    (fun () -> alloc.Allocator.remove 0)

(* Theorem 5.1: expected max load <= (3 log N / log log N + 1) L*.
   We estimate the expectation over many seeds on a fixed adversarial
   workload (all-unit flood: the binomial worst case for oblivious
   placement) and require the empirical mean below the bound. *)
let test_theorem_5_1_statistical () =
  let n = 256 in
  let m = Machine.create n in
  let events =
    List.init n (fun id -> Pmp_workload.Event.arrive (Task.make ~id ~size:1))
  in
  let seq = Sequence.of_events_exn events in
  let trials = 100 in
  let total = ref 0 in
  for seed = 1 to trials do
    let alloc = Randomized.create m ~rng:(Sm.create seed) in
    let r = Engine.run alloc seq in
    total := !total + r.Engine.max_load
  done;
  let mean = float_of_int !total /. float_of_int trials in
  let bound = Bounds.rand_upper_factor ~machine_size:n (* * L* = 1 *) in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f <= bound %.2f" mean bound)
    true (mean <= bound);
  (* sanity: randomized oblivious placement really does collide *)
  Alcotest.(check bool) "collisions happen" true (mean > 1.0)

(* On every single run the load can never exceed the number of active
   tasks (trivial sanity) and never undershoots instantaneous opt. *)
let prop_sane_loads =
  QCheck.Test.make ~name:"randomized: load between opt and active count"
    ~count:100
    (Helpers.seq_params ~max_levels:6 ~max_steps:150 ())
    (fun (levels, seed, steps) ->
      let m = Machine.of_levels levels in
      let seq = Helpers.random_sequence ~seed ~machine_size:(Machine.size m) ~steps in
      let alloc = Randomized.create m ~rng:(Sm.create (seed + 77)) in
      let r = Helpers.run_checked alloc seq in
      let ok = ref true in
      Array.iteri
        (fun i load -> if load < r.Engine.opt_trajectory.(i) then ok := false)
        r.Engine.load_trajectory;
      !ok && r.Engine.tasks_moved = 0)

let suite =
  [
    Alcotest.test_case "legal placements" `Quick test_placement_legal;
    Alcotest.test_case "seeded determinism" `Quick test_determinism_by_seed;
    Alcotest.test_case "spread" `Quick test_spread;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "Theorem 5.1 statistical" `Slow test_theorem_5_1_statistical;
  ]
  @ Helpers.qtests [ prop_sane_loads ]
