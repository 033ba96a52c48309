(** Free-space manager for one virtual copy of the machine.

    Tracks the vacant PEs of a single machine copy as a set of
    {e maximal, fully coalesced} free blocks ordered by position. A
    maximal free block is always aligned to its own size, so the
    paper's allocation rule — "the leftmost vacant [2{^x}]-PE
    submachine" — is simply the start of the leftmost maximal free
    block of size at least [2{^x}]. Allocation splits a block buddy-
    style (keeping the remainder as aligned blocks); deallocation
    re-coalesces with free buddies. *)

type t

val create : Pmp_machine.Machine.t -> t
(** A fully vacant copy. *)

val machine : t -> Pmp_machine.Machine.t

val alloc : t -> order:int -> Pmp_machine.Submachine.t option
(** [alloc t ~order] claims and returns the leftmost vacant submachine
    of size [2{^order}], or [None] if the copy has no vacant block that
    large. @raise Invalid_argument if [order] exceeds the machine. *)

val alloc_best_fit : t -> order:int -> Pmp_machine.Submachine.t option
(** Classic best-fit ablation of the paper's leftmost rule: claim the
    start of the {e smallest} adequate maximal free block (leftmost
    among equally small ones), so large blocks are preserved for large
    requests. Same failure condition as {!alloc}. *)

val claim : t -> Pmp_machine.Submachine.t -> bool
(** Claim one given submachine, splitting the free block that holds
    it; [false] (and no change) when some PE of it is already
    allocated. The free blocks stay maximal, so a copy rebuilt by
    claiming a set of blocks equals any copy that allocated the same
    set. *)

val free : t -> Pmp_machine.Submachine.t -> unit
(** Release a previously allocated submachine.
    @raise Invalid_argument if any PE of it is already vacant. *)

val can_alloc : t -> order:int -> bool
(** Whether an [alloc] at this order would succeed. *)

val max_free_order : t -> int
(** Order of the largest vacant block; -1 if the copy is full. *)

val free_size : t -> int
(** Total number of vacant PEs. *)

val is_vacant : t -> bool
(** No PE allocated. *)

val free_blocks : t -> Pmp_machine.Submachine.t list
(** The maximal free blocks, leftmost first (for tests and reports). *)

val check_invariants : t -> (unit, string) result
(** Validates coalescing (no two adjacent buddy blocks both free),
    alignment, and disjointness. Used by property tests. *)
