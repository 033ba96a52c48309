(* The scenario layer: compiled streams are well-formed and
   deterministic, and verdicts are golden-stable. *)

module Machine = Pmp_machine.Machine
module Realloc = Pmp_core.Realloc
module CL = Pmp_sim.Closed_loop
module Scenario = Pmp_scenario.Scenario
module Registry = Pmp_scenario.Registry
module Verdict = Pmp_scenario.Verdict
module Runner = Pmp_scenario.Runner
module Builders = Pmp_cli.Builders
module Timed = Pmp_workload.Timed
module Json = Pmp_util.Json

let test_order = 8
(* qcheck compiles every scenario at a small machine so the adversary
   components stay cheap; their own orders clamp down automatically *)

let compile_small scn seed =
  Scenario.compile scn ~machine_size:(1 lsl test_order) ~seed

let arb_case =
  QCheck.make
    ~print:(fun (s, seed) -> Printf.sprintf "%s/seed=%d" s.Scenario.name seed)
    QCheck.Gen.(pair (oneofl Registry.all) (int_range 0 10_000))

(* Every compiled stream is a valid closed-loop script: timestamps
   non-negative and non-decreasing, submit keys unique, every cancel
   strictly after its own submit — and the open-loop projection is a
   valid timed sequence (arrivals fresh, departures reference live
   tasks, exactly two events per job). *)
let prop_well_formed =
  QCheck.Test.make ~name:"scenario: compiled script well-formed" ~count:60
    arb_case
    (fun (scn, seed) ->
      let c = compile_small scn seed in
      let ok = ref true in
      let last = ref 0.0 in
      let submitted = Hashtbl.create 64 in
      Array.iter
        (fun (at, op) ->
          if at < !last || at < 0.0 then ok := false;
          last := at;
          match op with
          | CL.Submit { key; size; work } ->
              if Hashtbl.mem submitted key then ok := false;
              Hashtbl.replace submitted key ();
              if work <= 0.0 then ok := false;
              if
                (not (Pmp_util.Pow2.is_pow2 size))
                || size > c.Scenario.machine_size
              then ok := false
          | CL.Cancel key -> if not (Hashtbl.mem submitted key) then ok := false)
        c.Scenario.script;
      let timed = Scenario.open_loop c in
      !ok
      && Timed.length timed = 2 * Scenario.num_submits c
      && Hashtbl.length submitted = Scenario.num_submits c)

let prop_deterministic =
  QCheck.Test.make ~name:"scenario: compilation deterministic per seed"
    ~count:40 arb_case
    (fun (scn, seed) ->
      let a = compile_small scn seed in
      let b = compile_small scn seed in
      a.Scenario.script = b.Scenario.script && a.Scenario.jobs = b.Scenario.jobs)

(* Executing any scenario drains the machine, never finishes a job
   before its work could complete, and accounts for every submission
   as either a completion or a kill. *)
let prop_execution_sane =
  QCheck.Test.make ~name:"scenario: closed-loop run drains and orders" ~count:20
    arb_case
    (fun (scn, seed) ->
      let machine = Machine.of_levels test_order in
      let c = compile_small scn seed in
      let r = CL.run_script (Pmp_core.Greedy.create machine) c.Scenario.script in
      List.length r.CL.completions + r.CL.kills = Scenario.num_submits c
      && List.for_all
           (fun (cm : CL.completion) ->
             cm.CL.slowdown >= 1.0 -. 1e-9 && cm.CL.finish >= cm.CL.arrival)
           r.CL.completions)

(* --- golden verdicts ---------------------------------------------- *)

let golden_verdict name =
  let scn = Option.get (Registry.find name) in
  let machine = Machine.create 256 in
  let d = Realloc.make_budget 2 in
  let make () =
    match Builders.allocator "greedy" machine ~d ~seed:7 with
    | Ok a -> a
    | Error (`Msg e) -> failwith e
  in
  let oracle =
    match Builders.oracle_spec "greedy" machine ~d with
    | Ok s -> s
    | Error (`Msg e) -> failwith e
  in
  (* deterministic fake clock: the verdict must not depend on wall
     time even with a live probe attached *)
  let t = ref 0.0 in
  let clock () =
    t := !t +. 1e-6;
    !t
  in
  let probe = Pmp_telemetry.Probe.create ~clock () in
  let v, _ = Runner.run ~telemetry:probe ~oracle ~make ~seed:7 scn in
  Json.to_string (Verdict.golden_json v)

let test_golden_flash_crowd () =
  Alcotest.(check string) "flash-crowd verdict"
    "{\"scenario\": \"flash-crowd\",\"allocator\": \
     \"greedy\",\"machine_size\": 256,\"seed\": 7,\"jobs\": \
     840,\"completions\": 840,\"kills\": 0,\"sim_events\": \
     1680,\"max_load\": 32,\"optimal_load\": 32,\"peak_active\": \
     7986,\"p99_bucket\": 35.527136788005009,\"p999_bucket\": \
     35.527136788005009,\"load_bound_ok\": true,\"oracle\": \
     \"pass\",\"pass\": true}"
    (golden_verdict "flash-crowd")

let test_golden_rolling_restart () =
  Alcotest.(check string) "rolling-restart verdict"
    "{\"scenario\": \"rolling-restart\",\"allocator\": \
     \"greedy\",\"machine_size\": 256,\"seed\": 7,\"jobs\": \
     242,\"completions\": 146,\"kills\": 96,\"sim_events\": \
     484,\"max_load\": 2,\"optimal_load\": 2,\"peak_active\": \
     427,\"p99_bucket\": 2.44140625,\"p999_bucket\": \
     2.44140625,\"load_bound_ok\": true,\"oracle\": \"pass\",\"pass\": \
     true}"
    (golden_verdict "rolling-restart")

(* --- registry ----------------------------------------------------- *)

let test_registry () =
  Alcotest.(check bool) "at least eight scenarios" true
    (List.length Registry.all >= 8);
  List.iter
    (fun (s : Scenario.t) ->
      Alcotest.(check bool)
        (s.Scenario.name ^ " findable") true
        (Registry.find s.Scenario.name = Some s))
    Registry.all;
  Alcotest.(check bool) "fast subset is registered" true
    (List.for_all (fun s -> List.memq s Registry.all) Registry.fast_subset)

let suite =
  [
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "golden: flash-crowd" `Quick test_golden_flash_crowd;
    Alcotest.test_case "golden: rolling-restart" `Quick
      test_golden_rolling_restart;
  ]
  @ Helpers.qtests [ prop_well_formed; prop_deterministic; prop_execution_sane ]
