(** Randomized placement {e with} periodic reallocation — the paper's
    explicitly posed open problem ("The question of utilizing
    reallocation together with randomization is an area for future
    study", §5).

    Arrivals are placed obliviously at a uniformly random submachine of
    their size, exactly like {!Randomized}; but like {!Periodic}, the
    algorithm accrues reallocation permission as arrivals accumulate
    and spends it lazily: when the machine's maximum load would grow
    beyond what a repacked configuration needs {e and} the cumulative
    arrival size since the last repack has reached [d * N], all active
    tasks are repacked with {!Repack}.

    Guarantees: after any repack the load is exactly [ceil(A/N) <= L*];
    between repacks the oblivious placements add at most the Theorem
    5.1 overhead on the ≤ [d·N] PEs' worth of interim arrivals. The
    experiments (bench E12) measure where this hybrid sits between pure
    randomized (no repairs) and deterministic [A_M] (no randomness) —
    empirically answering the open question at simulation scale. *)

val create :
  ?probe:Pmp_telemetry.Probe.t ->
  Pmp_machine.Machine.t ->
  rng:Pmp_prng.Splitmix64.t ->
  d:Realloc.t ->
  Allocator.t
