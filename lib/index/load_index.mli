(** Load-indexed view of the machine.

    A segment tree over the [N]-leaf array with lazy range adds (a
    mapped task of size [2{^j}] is a range increment on its aligned
    leaf interval), augmented with a per-depth min-of-window-max
    aggregate. It answers the two queries every allocator in the repo
    asks on each arrival — the Theorem 4.1 greedy choice "which
    size-[2{^k}] submachine currently has minimum load?" and "what is
    the current max load vs [L{^*}]?" — in [O(log N)] instead of a
    leaf scan.

    Cost model: {!range_add} is [O(log N)] plus the aggregate slots
    the add actually changes — it recombines only those and stops at
    the first ancestor left unchanged — so [O(log{^2} N)] in the worst
    case, and it allocates nothing; {!max_load},
    {!total_load}, {!mean_load} and {!imbalance} are [O(1)];
    {!min_load_subtree} and {!max_load_in} are [O(log N)];
    {!leaf_loads} and {!loads_at_order} are [O(N)] snapshots. *)

type t

val create : Pmp_machine.Machine.t -> t
(** All PE loads start at zero. *)

val range_add : t -> Pmp_machine.Submachine.t -> int -> unit
(** [range_add t sub delta] adds [delta] to the load of every PE in
    [sub]'s aligned leaf interval. [delta] may be negative
    (deallocation); resulting loads must stay non-negative. *)

val max_load : t -> int
(** Maximum PE load over the whole machine. [O(1)]. *)

val max_load_in : t -> Pmp_machine.Submachine.t -> int
(** Maximum PE load within one submachine. [O(log N)]. *)

val min_load_subtree : t -> order:int -> int * Pmp_machine.Submachine.t
(** [min_load_subtree t ~order] is [(load, sub)] where [sub] is the
    {e leftmost} order-[order] aligned window minimising the maximum
    PE load and [load] is that minimum — the greedy allocator's choice
    rule, in [O(log N)]. @raise Invalid_argument if [order] exceeds
    the machine levels. *)

val total_load : t -> int
(** Sum of all PE loads (= total active task size). [O(1)]. *)

val mean_load : t -> float
(** [total_load / N]. *)

val imbalance : t -> float
(** [max_load /. mean_load]; [nan] on an all-idle machine (no
    imbalance to speak of, not a silent "perfectly balanced" 1.0). *)

val leaf_load : t -> int -> int
(** Current load of one PE. [O(log N)]. *)

val leaf_loads : t -> int array
(** Snapshot of all PE loads, index = leaf. [O(N)]. *)

val loads_at_order : t -> int -> int array
(** Maximum PE load of every order-[x] window, leftmost first.
    [O(N)]; kept for baseline fit policies that need the full view. *)
