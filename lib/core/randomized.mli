(** The paper's oblivious randomized algorithm (§5.1, Theorem 5.1).

    An arriving task of size [2{^x}] is assigned to each of the
    [N/2{^x}] submachines of its size with equal probability,
    independent of current loads, and no reallocation ever happens.
    Despite its obliviousness the maximum expected load is at most
    [(3 log N / log log N + 1) * L*] — asymptotically better than any
    deterministic no-reallocation algorithm (Theorem 4.3 forces those
    to [ceil ((log N + 1)/2) * L*]). *)

val create :
  ?state:Allocator.state ->
  Pmp_machine.Machine.t ->
  rng:Pmp_prng.Splitmix64.t ->
  Allocator.t
(** [export] records [rng]'s state; to resume, pass the exported state
    as [?state] together with [Splitmix64.of_state state.rng]. *)
