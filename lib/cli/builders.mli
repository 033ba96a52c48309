(** Name-based constructors shared by the [pmp] command-line tool and
    any other front end (and unit-testable without invoking the
    binary): parse a reallocation parameter, build an allocator or a
    workload from its CLI name. All errors come back as
    [Error (`Msg _)], cmdliner's convention. *)

type 'a result := ('a, [ `Msg of string ]) Stdlib.result

val parse_d : string -> Pmp_core.Realloc.t result
(** Accepts a non-negative integer, or ["inf"]/["never"]. *)

val machine : int -> Pmp_machine.Machine.t result
(** Validates the power-of-two constraint. *)

val allocator_names : string list
(** Every name {!allocator} accepts. The paper's algorithm names are
    also accepted as aliases: [ag]/[a_g] for greedy, [ab]/[a_b] for
    copies, [ac]/[a_c] for optimal, [am]/[a_m] for periodic. *)

val allocator :
  ?probe:Pmp_telemetry.Probe.t ->
  string ->
  Pmp_machine.Machine.t ->
  d:Pmp_core.Realloc.t ->
  seed:int ->
  Pmp_core.Allocator.t result
(** Build a fresh allocator by CLI name. Randomized allocators derive
    their stream from [seed]. [?probe] is threaded into allocators
    that support source-side instrumentation (greedy, periodic,
    hybrid, rand-periodic). *)

val cluster_policy :
  string ->
  d:Pmp_core.Realloc.t ->
  seed:int ->
  Pmp_cluster.Cluster.policy result
(** Resolve an allocator name (aliases included) to a {!Pmp_cluster}
    policy — the subset of allocators a long-lived cluster (the
    console and the pmpd daemon) can run. *)

val workload_names : string list

val workload :
  string ->
  machine_size:int ->
  steps:int ->
  seed:int ->
  Pmp_workload.Sequence.t result
(** Build a seeded workload by CLI name. [steps] scales the generators
    that take a length; fixed-shape workloads (figure1, sawtooth,
    staircase, sigma-r) ignore it. *)

val scenario_names : string list
(** Every name {!scenario} accepts — the {!Pmp_scenario.Registry}. *)

val scenario : string -> Pmp_scenario.Scenario.t result
(** Look up a named production-shaped scenario. *)

val topology : string -> Pmp_machine.Machine.t -> Pmp_machine.Topology.t result

val oracle_spec :
  string ->
  Pmp_machine.Machine.t ->
  d:Pmp_core.Realloc.t ->
  Pmp_oracle.Oracle.spec result
(** The conformance envelope [--check=oracle] holds an allocator to:
    the theorem load bound where one exists ([optimal] -> T3.1 exact,
    [greedy]/[copies] -> T4.1 factor, [periodic] -> T4.2 factor), the
    d-reallocation budget, and the copy-disjointness packing invariant
    for copy-stack allocators. Baselines and the randomized family get
    structural and budget checks only. *)
