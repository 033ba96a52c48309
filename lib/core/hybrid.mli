(** Greedy placement with lazily-spent reallocation budget — an
    ablation of [A_M] answering "does the copy discipline between
    repacks matter, or is min-load greedy just as good?"

    Identical budget semantics to {!Periodic}'s copy branch
    (reallocation permission accrues per [d * N] PEs of arrivals and is
    spent only when the machine sits above the instantaneous optimum),
    but between repacks arrivals go to the leftmost least-loaded
    submachine of their size, as in {!Greedy}. Bench E12 compares the
    three interim disciplines — copies, greedy, oblivious random —
    under equal budgets. *)

val create :
  ?probe:Pmp_telemetry.Probe.t ->
  ?state:Allocator.state ->
  Pmp_machine.Machine.t ->
  d:Realloc.t ->
  Allocator.t
(** [?state] resumes an exported hybrid allocator. *)
