(** A bounded, lock-free single-producer/single-consumer ring.

    The queue between two specific domains in the sharded server: the
    acceptor hands connections to each shard over one, and each ordered
    pair of shards exchanges steal/forward calls and their responses
    over one. Exactly one domain may
    call {!push} and exactly one (possibly different) domain may call
    {!pop} — under that contract every operation is wait-free: one
    atomic read, one atomic write, no locks, no CAS loops.

    Publication is by the release/acquire pairing of [Atomic] head and
    tail indices: the producer writes the slot plainly and then
    advances [tail]; a consumer that observes the new [tail] therefore
    observes the slot write (the OCaml memory model's
    atomic-establishes-happens-before rule), so the queue is
    data-race-free — ThreadSanitizer-clean — without any per-slot
    synchronisation. *)

type 'a t

val create : int -> 'a t
(** [create capacity] with [capacity] a positive power of two (rounded
    up if not). The ring holds at most [capacity] elements. *)

val capacity : 'a t -> int

val push : 'a t -> 'a -> [ `Pushed of [ `Was_empty | `Was_nonempty ] | `Full ]
(** Producer side. [`Pushed `Was_empty] means the queue was empty
    before this push — the cue to wake a sleeping consumer. [`Full]
    leaves the queue unchanged; the producer decides whether to spin,
    drop, or apply backpressure. *)

val pop : 'a t -> 'a option
(** Consumer side. [None] when empty. The consumed slot is cleared so
    the ring never retains references to dead values. *)

val length : 'a t -> int
(** Racy but monotone-consistent snapshot ([tail - head] read with two
    atomic loads): exact when called from producer or consumer, and
    never negative. Feeds the per-shard queue-depth gauges and the
    steal heuristic. *)

val is_empty : 'a t -> bool
