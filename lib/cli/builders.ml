module Machine = Pmp_machine.Machine
module Topology = Pmp_machine.Topology
module Sm = Pmp_prng.Splitmix64
module Generators = Pmp_workload.Generators
module Realloc = Pmp_core.Realloc

let parse_d s =
  match String.lowercase_ascii s with
  | "inf" | "never" -> Ok Realloc.Never
  | _ -> begin
      match int_of_string_opt s with
      | Some v when v >= 0 -> Ok (Realloc.make_budget v)
      | Some _ | None -> Error (`Msg (Printf.sprintf "bad d value %S" s))
    end

let machine n =
  if Pmp_util.Pow2.is_pow2 n then Ok (Machine.create n)
  else Error (`Msg "machine size must be a positive power of two")

let allocator_names =
  [
    "greedy"; "copies"; "copies-bestfit"; "optimal"; "periodic"; "hybrid";
    "randomized";
    "rand-periodic"; "two-choice"; "greedy-rightmost"; "greedy-random-tie";
    "leftmost-always"; "round-robin"; "worst-fit";
  ]

(* The paper's algorithm names double as aliases: A_G is greedy, A_B
   the copy first-fit, A_C the every-arrival repacker, A_M the
   d-reallocation algorithm. *)
let canonical = function
  | "ag" | "a_g" -> "greedy"
  | "ab" | "a_b" -> "copies"
  | "ac" | "a_c" -> "optimal"
  | "am" | "a_m" -> "periodic"
  | name -> name

let allocator ?probe name m ~d ~seed =
  match canonical name with
  | "greedy" -> Ok (Pmp_core.Greedy.create ?probe m)
  | "copies" -> Ok (Pmp_core.Copies.create m)
  | "copies-bestfit" ->
      Ok (Pmp_core.Copies.create ~fit:Pmp_core.Copystack.Best_fit m)
  | "optimal" -> Ok (Pmp_core.Optimal.create m)
  | "periodic" -> Ok (Pmp_core.Periodic.create ?probe m ~d)
  | "hybrid" -> Ok (Pmp_core.Hybrid.create ?probe m ~d)
  | "randomized" ->
      Ok (Pmp_core.Randomized.create m ~rng:(Sm.create (seed + 1)))
  | "rand-periodic" ->
      Ok (Pmp_core.Rand_periodic.create ?probe m ~rng:(Sm.create (seed + 1)) ~d)
  | "two-choice" ->
      Ok (Pmp_core.Baselines.two_choice m ~rng:(Sm.create (seed + 3)))
  | "greedy-rightmost" -> Ok (Pmp_core.Baselines.rightmost_greedy m)
  | "greedy-random-tie" ->
      Ok (Pmp_core.Baselines.random_tie_greedy m ~rng:(Sm.create (seed + 2)))
  | "leftmost-always" -> Ok (Pmp_core.Baselines.leftmost_always m)
  | "round-robin" -> Ok (Pmp_core.Baselines.round_robin m)
  | "worst-fit" -> Ok (Pmp_core.Baselines.worst_fit m)
  | other -> Error (`Msg (Printf.sprintf "unknown allocator %S" other))

(* The subset of allocator names the long-lived Cluster facade (and so
   the console and the pmpd daemon) can run as a policy. *)
let cluster_policy name ~d ~seed =
  match canonical name with
  | "greedy" -> Ok Pmp_cluster.Cluster.Greedy
  | "copies" -> Ok Pmp_cluster.Cluster.Copies
  | "optimal" -> Ok Pmp_cluster.Cluster.Optimal
  | "periodic" -> Ok (Pmp_cluster.Cluster.Periodic d)
  | "hybrid" -> Ok (Pmp_cluster.Cluster.Hybrid d)
  | "randomized" -> Ok (Pmp_cluster.Cluster.Randomized seed)
  | other ->
      Error
        (`Msg (Printf.sprintf "allocator %S cannot run as a cluster policy" other))

let workload_names =
  [
    "churn"; "bursty"; "sawtooth"; "fragmenting"; "staircase"; "arrivals";
    "figure1"; "sigma-r";
  ]

let workload name ~machine_size ~steps ~seed =
  if not (Pmp_util.Pow2.is_pow2 machine_size) then
    Error (`Msg "machine size must be a positive power of two")
  else begin
    let g = Sm.create seed in
    let levels = Pmp_util.Pow2.ilog2 machine_size in
    match name with
    | "churn" ->
        Ok
          (Generators.churn g ~machine_size ~steps ~target_util:1.5
             ~max_order:(max 0 (levels - 1)) ~size_bias:0.6)
    | "bursty" ->
        Ok
          (Generators.bursty g ~machine_size ~sessions:(max 1 (steps / 100))
             ~session_tasks:50
             ~max_order:(max 0 (levels - 1)))
    | "sawtooth" -> Ok (Generators.sawtooth ~machine_size ~rounds:levels)
    | "fragmenting" ->
        Ok
          (Generators.sawtooth_cycles ~machine_size
             ~cycles:(max 1 (steps / 1000)))
    | "staircase" -> Ok (Generators.staircase_descent ~machine_size)
    | "arrivals" ->
        Ok
          (Generators.arrivals_only g ~count:steps
             ~max_order:(max 0 (levels - 1)))
    | "figure1" -> Ok (Generators.figure1 ())
    | "sigma-r" ->
        if levels < 2 then Error (`Msg "sigma-r needs a machine of at least 4 PEs")
        else Ok (Pmp_adversary.Rand_adversary.generate g ~machine_size)
    | other -> Error (`Msg (Printf.sprintf "unknown workload %S" other))
  end

let scenario_names = Pmp_scenario.Registry.names

let scenario name =
  match Pmp_scenario.Registry.find name with
  | Some s -> Ok s
  | None -> Error (`Msg (Printf.sprintf "unknown scenario %S" name))

let topology name m =
  match Topology.of_name name with
  | Some kind -> Ok (Topology.create kind m)
  | None -> Error (`Msg (Printf.sprintf "unknown topology %S" name))

(* Which theorem envelope the oracle should hold each allocator to.
   Allocators outside the paper's theorems (baselines, ablations, the
   randomized family whose bounds hold only in expectation) get the
   structural/accounting checks without a load bound. *)
let oracle_spec name m ~d =
  let module Oracle = Pmp_oracle.Oracle in
  let machine_size = Machine.size m in
  let greedy_factor = Pmp_core.Bounds.greedy_upper_factor ~machine_size in
  match canonical name with
  | "optimal" ->
      (* T3.1: A_C repacks on every arrival and achieves exactly L*. *)
      Ok
        {
          Oracle.bound = Oracle.Exact;
          budget = Some Realloc.Every;
          disjoint_copies = true;
        }
  | "greedy" ->
      (* T4.1; greedy never reallocates, so its budget is d = inf. *)
      Ok
        {
          Oracle.bound = Oracle.Within_factor greedy_factor;
          budget = Some Realloc.Never;
          disjoint_copies = false;
        }
  | "copies" ->
      (* A_B first-fits into copies and never reallocates; Lemma 2
         keeps it within the greedy factor. *)
      Ok
        {
          Oracle.bound = Oracle.Within_factor greedy_factor;
          budget = Some Realloc.Never;
          disjoint_copies = true;
        }
  | "periodic" ->
      (* T4.2. The d >= ceil((log N + 1)/2) regime delegates to pure
         greedy, which stacks everything on copy 0. *)
      let delegates = Pmp_core.Realloc.exceeds_greedy_threshold d m in
      Ok
        {
          Oracle.bound =
            Oracle.Within_factor
              (Pmp_core.Bounds.det_upper_factor ~machine_size ~d);
          budget = Some d;
          disjoint_copies = not delegates;
        }
  | "hybrid" | "rand-periodic" ->
      (* open-problem extensions: budgeted repacks, no proven bound *)
      Ok
        { Oracle.bound = Oracle.Unbounded; budget = Some d; disjoint_copies = false }
  | "copies-bestfit" ->
      (* best-fit ablation: packing invariant holds, Lemma 2 does not *)
      Ok
        {
          Oracle.bound = Oracle.Unbounded;
          budget = Some Realloc.Never;
          disjoint_copies = true;
        }
  | "randomized" | "two-choice" | "greedy-rightmost" | "greedy-random-tie"
  | "leftmost-always" | "round-robin" | "worst-fit" ->
      Ok
        {
          Oracle.bound = Oracle.Unbounded;
          budget = Some Realloc.Never;
          disjoint_copies = false;
        }
  | other -> Error (`Msg (Printf.sprintf "no oracle spec for allocator %S" other))
