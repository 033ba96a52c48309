(** Per-PE load accounting over the machine tree.

    Assigning a task to a submachine raises the load of every PE in it
    by one; the greedy allocator then needs, for each arriving size, the
    leftmost submachine of that size whose maximum PE load is smallest.
    We keep a lazy segment tree shaped exactly like the machine tree
    (range add over a submachine's leaf span, subtree max), so an
    assignment costs [O(log N)] and a min-of-max query over all
    submachines of order [x] costs [O(N / 2{^x})]. *)

type t

val create : Machine.t -> t
(** All PE loads start at zero. *)

val add : t -> Submachine.t -> int -> unit
(** [add t sub delta] adds [delta] to the load of every PE in [sub].
    [delta] may be negative (deallocation); resulting loads must stay
    non-negative, checked lazily by {!max_load} users in debug builds. *)

val max_load : t -> Submachine.t -> int
(** Maximum PE load within the submachine. *)

val max_overall : t -> int
(** Maximum PE load over the whole machine. *)

val min_max_at_order : t -> int -> int * Submachine.t
(** [min_max_at_order t x] is [(load, sub)] where [sub] is the
    {e leftmost} order-[x] submachine minimising the maximum PE load
    and [load] is that minimum. This is the greedy allocator's choice
    rule. @raise Invalid_argument if [x] exceeds the machine levels. *)

val loads_at_order : t -> int -> int array
(** [loads_at_order t x] is the maximum PE load of every order-[x]
    submachine, indexed left to right. [O(N / 2{^x})]. Baseline fit
    policies (best/worst/random tie-breaking) choose from this view. *)

val leaf_load : t -> int -> int
(** Current load of one PE. *)

val leaf_loads : t -> int array
(** Snapshot of all PE loads, index = leaf. [O(N)]. *)

val clear : t -> unit
(** Reset all loads to zero. *)
