(** The simulation engine: drive an allocator over a task sequence and
    measure it.

    Loads are accounted by an independent {!Pmp_core.Mirror}, never by
    the allocator itself. In [~check:true] mode every response is
    structurally validated and the mirror is cross-checked against the
    allocator's own placement view after every event — slow, but the
    test suite runs all integration scenarios this way. *)

type result = {
  allocator_name : string;
  machine_size : int;
  events : int;
  max_load : int;  (** [L_A(σ) = max over τ of L_A(σ;τ)] *)
  optimal_load : int;  (** [L* = ceil (s(σ)/N)] *)
  ratio : float;  (** [max_load / max 1 L*] *)
  load_trajectory : int array;  (** machine load after each event *)
  opt_trajectory : int array;
      (** instantaneous lower bound [ceil (S(σ;τ)/N)] after each
          event *)
  realloc_events : int;
  tasks_moved : int;
  migration_traffic : int;  (** per the cost model; 0 when none given *)
  final_leaf_loads : int array;
  final_imbalance : float;
      (** max PE load / mean PE load at the final state, sampled O(1)
          from the mirror's load index; [nan] when all-idle *)
}

val run :
  ?check:bool ->
  ?oracle:Pmp_oracle.Oracle.spec ->
  ?cost:Cost.t ->
  ?telemetry:Pmp_telemetry.Probe.t ->
  Pmp_core.Allocator.t -> Pmp_workload.Sequence.t -> result
(** Run a {e fresh} allocator over the sequence from its beginning.
    With [~oracle:spec] a {!Pmp_oracle.Oracle.Observer} audits every
    response against the spec's theorem bound, reallocation budget and
    structural invariants, failing fast on the first violation (use
    {!Pmp_oracle.Oracle.check} instead when a shrunk counterexample is
    wanted — the engine cannot replay the allocator from scratch).
    With [~telemetry] (default {!Pmp_telemetry.Probe.noop}) every
    event updates the probe's counters/gauges/histograms and span
    timers and, when the probe carries a tracer, emits one structured
    record per arrival/departure (plus one per repack burst) with the
    task, placement, loads, L* and the oracle verdict; the probe may
    be shared with the allocator so repacks are attributed end to end.
    @raise Invalid_argument if the sequence does not fit the machine
    or (in checked or oracle mode) the allocator misbehaves. *)

val max_ratio_over_time : result -> float
(** Peak of [load(τ) / max 1 opt(τ)] — a finer competitive measure
    than [ratio] when the sequence's peak and the algorithm's worst
    moment differ. *)
