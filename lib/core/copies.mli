(** The paper's basic copy-based algorithm [A_B] (no reallocation).

    Arrivals first-fit into the ordered stack of virtual machine copies
    (leftmost vacant submachine of the first copy that has one, new
    copy if none does); departures vacate their block, which coalesces
    with free buddies. Lemma 2: on any sequence whose {e total arrival
    size} is [S], the load stays at most [ceil (S/N)] — the stack never
    holds two maximal vacant blocks of the same size, so fragmentation
    is bounded. [A_M] uses this between repacks. *)

val create :
  ?fit:Copystack.fit -> ?state:Allocator.state -> Pmp_machine.Machine.t ->
  Allocator.t
(** [fit] defaults to [Copystack.Leftmost], the paper's rule;
    [Best_fit] is the within-copy placement ablation (E10). [?state]
    resumes an exported allocator (see {!Copystack.restore}). *)
