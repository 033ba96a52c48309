(** Baseline and ablation allocators.

    None of these is from the paper; they isolate the two choices the
    greedy algorithm makes — {e which} load to prefer (fit policy) and
    {e which} candidate to take on ties (tie policy) — so the
    experiments can show that greedy's guarantees come from min-load
    selection, not from the leftmost tie-break, and how badly naive
    policies (always-leftmost clustering, worst-fit) lose. *)

val rightmost_greedy : Pmp_machine.Machine.t -> Allocator.t
(** Min-load selection, rightmost tie-break — the mirror image of
    [A_G]; same worst-case bound by symmetry. *)

val random_tie_greedy :
  Pmp_machine.Machine.t -> rng:Pmp_prng.Splitmix64.t -> Allocator.t
(** Min-load selection, uniform random tie-break. *)

val leftmost_always : Pmp_machine.Machine.t -> Allocator.t
(** Ignores load entirely: always the leftmost submachine of the
    arriving size. Models a naive allocator that clusters everything
    on one side of the machine. *)

val round_robin : Pmp_machine.Machine.t -> Allocator.t
(** Ignores load: cycles through the submachine indices of each size
    independently. Spreads tasks but is oblivious to departures. *)

val two_choice :
  Pmp_machine.Machine.t -> rng:Pmp_prng.Splitmix64.t -> Allocator.t
(** "Balanced allocations" (Azar, Broder, Karlin & Upfal — the paper's
    reference [2]) adapted to submachines: sample two independent
    uniformly random submachines of the arriving size and take the
    less loaded (leftmost on ties). For unit tasks this is the classic
    two-choice process whose maximum load is
    [Θ(log log N)] instead of one-choice's [Θ(log N / log log N)] —
    the comparison the E6 experiment draws. Still oblivious to
    everything except the two sampled loads; never reallocates. *)

val worst_fit : Pmp_machine.Machine.t -> Allocator.t
(** Deliberately adversarial straw-man: picks the {e most} loaded
    submachine (leftmost on ties). Lower-bounds how bad load-aware
    placement can get; useful for sanity-scaling plots. *)
