(** Deterministic SplitMix64 pseudo-random number generator.

    All randomness in the repository — randomized allocation, workload
    generation, the Theorem 5.2 random sequence — flows through this
    generator so that every experiment is exactly reproducible from a
    seed. SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) passes BigCrush,
    has a one-word state, and supports cheap stream splitting, which we
    use to give independent substreams to independent components. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. Equal seeds
    yield equal streams. *)

val copy : t -> t
(** Independent copy with identical current state. *)

val state : t -> int64
(** The whole current state, for externalising a generator. *)

val of_state : int64 -> t
(** A generator resuming from a {!state}: its stream continues exactly
    where the exported generator's did. *)

val split : t -> t
(** [split t] draws from [t] and returns a new generator whose stream is
    (statistically) independent of the continuation of [t]. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val bits30 : t -> int
(** 30 uniform random bits as a non-negative [int]. *)

val int : t -> int -> int
(** [int t bound] is uniform on [\[0, bound)]. @raise Invalid_argument
    if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform on [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)
