(** Theorem-conformance oracle: a step-by-step checker that wraps any
    {!Pmp_core.Allocator.t} and verifies, after every arrival and
    departure, that the allocator is still inside its provable envelope:

    - {b structural} validity of the response (placement and move sizes,
      in-machine submachines, moved tasks actually active, the arriving
      id fresh), via the extended {!Pmp_core.Allocator.check_response};
    - {b accounting}: the allocator's own placement table agrees with
      an independent {!Pmp_core.Mirror}; optionally, no two live tasks
      of the same virtual copy overlap (the copy-based packing
      invariant behind Lemmas 1-2);
    - the running {b load bound} of the algorithm's theorem — T3.1
      ([A_C] achieves exactly [L*]), T4.1 ([A_G] within
      [ceil((log N + 1)/2)] of [L*]), T4.2 ([A_M] within
      [min{d+1, ceil((log N + 1)/2)}]) — with [L*] tracked incrementally
      as [ceil (peak cumulative size / N)], valid on every prefix
      because each prefix is itself a sequence the theorem covers;
    - the {b d-reallocation budget}: repacks fire only once arrivals
      since the last repack total at least [d * N], never during a
      departure, and [realloc_events] moves in step with reported moves.

    Cost: the structural, accounting, budget and load checks are
    O(1 + moves) per event — the accounting check compares only the
    placements the event wrote ({!Pmp_core.Mirror.check_against}) and
    falls back to the full O(active) comparison only when a repack
    rewrote more than a journal's worth of tasks. [disjoint_copies]
    scans the active set per changed placement.

    On a violation, {!check} replays the trace through the
    delta-debugging {!Shrink} pass so the failure comes back as a
    minimal counterexample sequence instead of a 10k-event dump. *)

type load_bound =
  | Exact
      (** Theorem 3.1: peak load must equal the running [L*] exactly. *)
  | Within_factor of int
      (** Peak load at most [factor * L* + k], where [k] is the running
          peak of concurrently active full-machine tasks (each adds one
          thread to every PE without affecting placement decisions —
          the size-[N] reduction in the Theorem 4.1 proof). *)
  | Within_plus of int
      (** Peak load at most [L* + k] on arbitrary sequences — the copy
          branch of [A_M] (Lemma 2 argument). *)
  | Unbounded  (** No per-step load guarantee (baselines, ablations). *)

type spec = {
  bound : load_bound;
  budget : Pmp_core.Realloc.t option;
      (** When given, enforce the d-reallocation budget: [Never] means
          the allocator must never report a reallocation, [Budget d]
          requires at least [d * N] arrived PEs between repacks, and
          [Every] allows a repack on any arrival. [None] skips budget
          checking entirely (unknown or externally-managed policies). *)
  disjoint_copies : bool;
      (** Enforce that live tasks sharing a copy number occupy disjoint
          leaf spans (true for copy-stack allocators; false for
          allocators that place everything on copy 0 and let load
          stack). *)
}

val structural_only : spec
(** No load bound, no budget, no copy-disjointness — structural and
    accounting checks only. The weakest useful spec. *)

type kind = Structural | Accounting | Load | Budget

type violation = {
  step : int;  (** 0-based index of the offending event. *)
  event : Pmp_workload.Event.t;
  kind : kind;
  message : string;
}

val pp_violation : Format.formatter -> violation -> unit

(** Incremental interface, for wiring into a driving loop (the
    simulation engine's checked mode uses this). The observer holds a
    reference to the allocator it audits so it can read
    [realloc_events] and its placement table after every event. *)
module Observer : sig
  type t

  val create : spec -> Pmp_core.Allocator.t -> t
  (** An observer for the allocator as it stands. For a fresh
      allocator that is a fresh observer. For one resumed from an
      exported {!Pmp_core.Allocator.state}, the observer resumes too:
      its mirror starts from the allocator's placement table, and the
      running peaks ([L*]'s active size, the load, the full-machine
      count) from their current values, and the budget count from
      zero. Those stand in for a history the observer never saw, so a
      load-bound or budget spec may flag what that history would have
      justified; {!structural_only}, which the daemon's recovery audit
      uses, reads none of them. *)

  val observe_assign :
    t ->
    Pmp_workload.Task.t ->
    Pmp_core.Allocator.response ->
    (unit, violation) result
  (** Feed the response the allocator just gave for an arrival. *)

  val observe_remove :
    t -> Pmp_workload.Task.id -> (unit, violation) result
  (** Record a departure the allocator was just told about. *)

  val peak_load : t -> int
  (** Highest machine load seen so far. *)

  val optimal_load : t -> int
  (** Running [L* = ceil (peak cumulative size / N)]. *)
end

val run :
  spec ->
  make:(unit -> Pmp_core.Allocator.t) ->
  Pmp_workload.Sequence.t ->
  (unit, violation) result
(** Drive a fresh allocator from [make] over the whole sequence under
    the oracle; stop at the first violation. Exceptions escaping the
    allocator are reported as structural violations, so a crashing
    allocator still yields a shrinkable trace. *)

type counterexample = {
  first : violation;  (** what the full sequence tripped *)
  final : violation;  (** what the minimal trace trips *)
  trace : Pmp_workload.Sequence.t;  (** the minimal trace itself *)
  original_events : int;
  replays : int;  (** candidate replays the shrinker spent *)
}

val check :
  ?shrink:bool ->
  spec ->
  make:(unit -> Pmp_core.Allocator.t) ->
  Pmp_workload.Sequence.t ->
  (unit, counterexample) result
(** {!run}, plus trace minimisation on failure ([shrink] defaults to
    [true]; with [~shrink:false] the counterexample is the untouched
    offending prefix). *)

val pp_counterexample : Format.formatter -> counterexample -> unit
(** Render a counterexample for humans: the violation, the shrink
    statistics, and the minimal event trace one event per line. *)
