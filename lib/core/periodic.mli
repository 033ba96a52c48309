(** The paper's d-reallocation algorithm [A_M] (Theorem 4.2).

    When the reallocation budget is generous
    ([d >= ceil ((log N + 1)/2)]), repacking cannot beat the greedy
    bound, so [A_M] runs pure greedy {!Greedy} and never reallocates.

    Otherwise arrivals first-fit into the copy stack ({!Copies}'
    strategy), and the budget is spent {e lazily}: a repack (of all
    active tasks, via {!Repack}) happens only when an arrival finds no
    vacancy in the existing copies {e and} the cumulative size of
    arrivals since the last repack has reached [d * N]. This matches
    the paper's worked example — the 1-reallocation algorithm on the
    Figure-1 sequence holds its budget through the four unit arrivals
    and spends it when the size-2 task would otherwise open a second
    copy, achieving the optimal load 1.

    Load bound: after any repack the stack holds [ceil (A/N) <= L*]
    copies; a new copy is only ever created while the unspent arrival
    volume is below [d * N], so by the Lemma 2 argument the stack never
    exceeds [L* + d <= (d + 1) L*] copies. Combined with the greedy
    branch: [min {d + 1, ceil ((log N + 1)/2)} * L*].

    [~force_copies:true] keeps the copy-based branch even above the
    greedy threshold — an ablation knob for the experiments comparing
    the two branches on the same budget.

    [~eager:true] switches to the other defensible reading of the
    paper's trigger ("can reallocate … after the total size of tasks
    that have arrived since the last reallocation reaches dN"): repack
    {e immediately} when the arrival volume crosses [d * N], whether or
    not the machine is fragmented. Eager spending satisfies the same
    Theorem 4.2 bound but wastes budget on already-tidy configurations
    and cannot reproduce the paper's own Figure-1 narrative (which
    holds the budget until [t5] needs it); the E12 ablation quantifies
    the difference. Default: lazy. *)

val create :
  ?force_copies:bool ->
  ?eager:bool ->
  ?probe:Pmp_telemetry.Probe.t ->
  ?state:Allocator.state ->
  Pmp_machine.Machine.t ->
  d:Realloc.t ->
  Allocator.t
(** [?probe] (default {!Pmp_telemetry.Probe.noop}) receives one
    [record_repack] per reallocation event, attributing repack
    wall-clock and burst size at the source. [?state] resumes an
    exported allocator of the same branch: its placements, the arrival
    volume since the last repack and the repack count. *)
