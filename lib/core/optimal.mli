(** The paper's constantly reallocating algorithm [A_C]
    (0-reallocation).

    Every arrival triggers a full repack of the active set with the
    first-fit-decreasing procedure {!Repack} ([A_R]); departures just
    vacate. Theorem 3.1: the machine's load equals the optimal
    [L* = ceil (s(σ)/N)] at every instant, for every sequence — the
    benchmark the online algorithms are measured against. The price is
    that (almost) every active task may migrate on every arrival, which
    is what the migration-cost experiments quantify. *)

val create : ?state:Allocator.state -> Pmp_machine.Machine.t -> Allocator.t
(** [?state] resumes an exported allocator (see {!Copystack.restore}). *)
