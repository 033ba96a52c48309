(** Shared skeleton for allocators that combine an arbitrary online
    placement rule with lazily-spent reallocation budget.

    The skeleton owns the task table, whose own load index
    ({!Ptable.loads}) the placement rule reads, and the budget
    accounting; the placement rule only picks a submachine
    for each arriving order given the current loads. A repack rewrites
    the table, and the view follows every rewritten placement.
    Whenever an arrival leaves the machine above the instantaneous optimum
    [ceil(S/N)] {e and} the cumulative arrival volume since the last
    repack has reached [d * N], every active task is repacked with
    {!Repack} (first-fit decreasing), restoring the optimum and
    resetting the budget.

    {!Rand_periodic} (oblivious placement) and {!Hybrid} (greedy
    placement) are the two instantiations shipped; the skeleton is
    exposed so downstream users can try their own placement rules
    against the same budget discipline. *)

val create :
  ?probe:Pmp_telemetry.Probe.t ->
  ?state:Allocator.state ->
  Pmp_machine.Machine.t ->
  name:string ->
  d:Realloc.t ->
  choose:(Pmp_index.Load_index.t -> order:int -> Pmp_machine.Submachine.t) ->
  Allocator.t
(** [choose loads ~order] must return a submachine of size [2{^order}]
    inside the machine; the skeleton handles everything else. [?probe]
    (default {!Pmp_telemetry.Probe.noop}) receives one [record_repack]
    per reallocation event. [?state] resumes an exported allocator
    built with the same [d] and [choose]. [export] does not capture
    state [choose] keeps for itself (a PRNG, say). *)
