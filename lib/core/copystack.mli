(** An ordered stack of virtual machine copies.

    The paper's copy-based algorithms view the machine as a growable
    stack of identical virtual copies, each emulated as one thread
    layer on the real machine: a PE's load is bounded by the number of
    copies that occupy it. Allocation is first-fit over copies in
    creation order ("search for the first copy of T that contains a
    vacant submachine of the required size; if there is none, create a
    new copy"), leftmost within the chosen copy. *)

type t

type fit = Leftmost | Best_fit
(** Within-copy placement rule: the paper's leftmost-vacant rule, or
    the classic best-fit ablation (smallest adequate block). *)

val create : ?fit:fit -> Pmp_machine.Machine.t -> t
(** Starts with a single, fully vacant copy. [fit] defaults to
    [Leftmost] (the paper's rule). *)

val machine : t -> Pmp_machine.Machine.t

val alloc : t -> order:int -> Placement.t
(** First-fit allocation; creates a new copy when every existing copy
    is too fragmented. Never fails (the stack grows as needed).
    @raise Invalid_argument if [order] exceeds the machine. *)

val restore : t -> Ptable.t -> Allocator.state -> unit
(** Load an exported state's placements into a fresh stack, each
    claimed in its copy (the stack grows to reach it), and into the
    allocator's (empty) table. This reproduces the exporting stack
    exactly: it never keeps a vacant copy above the highest occupied
    one, and each copy's free blocks are determined by its allocated
    ones ({!Buddy.claim}).
    @raise Invalid_argument naming both tasks when two placements
    overlap on one copy. *)

val free : t -> Placement.t -> unit
(** Release a placement previously returned by [alloc].
    @raise Invalid_argument on unknown copies or double frees. *)

val can_alloc : t -> order:int -> bool
(** Whether some {e existing} copy has a vacant submachine of size
    [2{^order}] — i.e. whether [alloc] would succeed without growing
    the stack. *)

val num_copies : t -> int
(** Copies currently in existence (highest copy ever needed; trailing
    fully-vacant copies are trimmed). *)

val occupied_copies : t -> int
(** Copies with at least one allocated PE. *)

val reset : t -> unit
(** Drop all allocations (used when a repack rebuilds the stack). *)

val copy_free_blocks : t -> int -> Pmp_machine.Submachine.t list
(** Free blocks of one copy, for tests.
    @raise Invalid_argument if the copy does not exist. *)

val check_invariants : t -> (unit, string) result
