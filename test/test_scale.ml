(* Scale smoke tests: big machines, long sequences, the bounds still
   hold and nothing degrades catastrophically. Marked Slow. *)

module Machine = Pmp_machine.Machine
module Sequence = Pmp_workload.Sequence
module Sm = Pmp_prng.Splitmix64
module Engine = Pmp_sim.Engine
module Bounds = Pmp_core.Bounds
module Realloc = Pmp_core.Realloc

let big_churn n steps =
  let levels = Pmp_util.Pow2.ilog2 n in
  Pmp_workload.Generators.churn (Sm.create 99) ~machine_size:n ~steps
    ~target_util:2.0
    ~max_order:(levels - 1)
    ~size_bias:0.5

let test_greedy_at_scale () =
  let n = 16384 in
  let machine = Machine.create n in
  let seq = big_churn n 50_000 in
  let r = Engine.run (Pmp_core.Greedy.create machine) seq in
  Alcotest.(check bool) "within Theorem 4.1" true
    (r.Engine.max_load
    <= Bounds.greedy_upper_factor ~machine_size:n * r.Engine.optimal_load);
  Alcotest.(check int) "events processed" 50_000 r.Engine.events

let test_copies_at_scale () =
  let n = 16384 in
  let machine = Machine.create n in
  let seq = big_churn n 50_000 in
  let r = Engine.run (Pmp_core.Copies.create machine) seq in
  let bound = Pmp_util.Pow2.ceil_div (Sequence.total_arrival_size seq) n in
  Alcotest.(check bool) "within Lemma 2" true (r.Engine.max_load <= bound)

let test_periodic_at_scale () =
  let n = 4096 in
  let machine = Machine.create n in
  let seq = big_churn n 30_000 in
  let r =
    Engine.run
      (Pmp_core.Periodic.create ~force_copies:true machine ~d:(Realloc.Budget 2))
      seq
  in
  Alcotest.(check bool) "within L* + d" true
    (r.Engine.max_load <= r.Engine.optimal_load + 2)

let test_adversary_at_scale () =
  (* N = 2^12: the adversary must force factor 7 against greedy *)
  let machine = Machine.of_levels 12 in
  let outcome = Pmp_adversary.Det_adversary.run (Pmp_core.Greedy.create machine) ~d:12 in
  Alcotest.(check int) "forces ceil(13/2)" 7 outcome.Pmp_adversary.Det_adversary.max_load

let test_optimal_moderate_scale () =
  (* A_C repacks on every arrival: keep the size honest but nontrivial *)
  let n = 1024 in
  let machine = Machine.create n in
  let seq = big_churn n 4_000 in
  let r = Engine.run (Pmp_core.Optimal.create machine) seq in
  Alcotest.(check int) "exactly optimal" r.Engine.optimal_load r.Engine.max_load

(* --- scenario suite at N = 2^20 ----------------------------------- *)

(* These are the headline production-shaped runs: a full megaprocessor
   (2^20 CUs) on the load index. A few CPU-seconds each, so
   they only run when explicitly requested via PMP_SCALE=big (the
   nightly CI job sets it). *)

let big_scale_enabled () = Sys.getenv_opt "PMP_SCALE" = Some "big"

let scenario_at_full_scale name () =
  if not (big_scale_enabled ()) then
    Alcotest.skip ()
  else begin
    let scn = Option.get (Pmp_scenario.Registry.find name) in
    let machine_size = 1 lsl 20 in
    let machine = Machine.create machine_size in
    let make () =
      match
        Pmp_cli.Builders.allocator "greedy" machine ~d:(Realloc.make_budget 2)
          ~seed:42
      with
      | Ok a -> a
      | Error (`Msg e) -> failwith e
    in
    let v, _ = Pmp_scenario.Runner.run ~make ~seed:42 scn in
    Alcotest.(check int) "machine size 2^20" machine_size
      v.Pmp_scenario.Verdict.machine_size;
    Alcotest.(check bool) "jobs flowed" true (v.Pmp_scenario.Verdict.jobs > 0);
    Alcotest.(check bool)
      (name ^ " verdict pass")
      true
      (Pmp_scenario.Verdict.pass v)
  end

let suite =
  [
    Alcotest.test_case "greedy N=16k, 50k events" `Slow test_greedy_at_scale;
    Alcotest.test_case "scenario flash-crowd N=2^20 (PMP_SCALE=big)" `Slow
      (scenario_at_full_scale "flash-crowd");
    Alcotest.test_case "scenario adversary-interleaved N=2^20 (PMP_SCALE=big)"
      `Slow
      (scenario_at_full_scale "adversary-interleaved");
    Alcotest.test_case "scenario black-friday N=2^20 (PMP_SCALE=big)" `Slow
      (scenario_at_full_scale "black-friday");
    Alcotest.test_case "copies N=16k, 50k events" `Slow test_copies_at_scale;
    Alcotest.test_case "periodic N=4k, 30k events" `Slow test_periodic_at_scale;
    Alcotest.test_case "adversary N=4096" `Slow test_adversary_at_scale;
    Alcotest.test_case "optimal N=1k" `Slow test_optimal_moderate_scale;
  ]
