(** Observer-side bookkeeping of an allocator's state.

    The simulation engine and the Theorem 4.3 adversary both need an
    authoritative view of where every active task currently sits and
    what every PE's load is — kept {e outside} the allocator, so that
    measurements can't be skewed by an allocator's own accounting bugs.
    A mirror is fed every response and departure and keeps its own
    {!Ptable}, apart from the allocator's; that table's load view
    ({!Ptable.loads}: one increment per task per covered PE, matching
    the paper's load definition) answers the load queries below. *)

type t

val create : Pmp_machine.Machine.t -> t

val machine : t -> Pmp_machine.Machine.t

val apply_assign : t -> Pmp_workload.Task.t -> Allocator.response -> unit
(** Record an arrival's placement and any reallocation moves bundled
    with it. @raise Invalid_argument if a move refers to a task the
    mirror doesn't know, or the arriving task id is already active. *)

val apply_remove : t -> Pmp_workload.Task.id -> unit
(** Record a departure. @raise Invalid_argument on unknown ids. *)

val placement : t -> Pmp_workload.Task.id -> Placement.t option

val active : t -> (Pmp_workload.Task.t * Placement.t) list
(** Active tasks in unspecified order. *)

val num_active : t -> int
val active_size : t -> int

val max_load : t -> int
(** Current maximum PE load — the paper's [L_A(σ;τ)]. *)

val max_load_in : t -> Pmp_machine.Submachine.t -> int
(** Max PE load within a submachine ([l(T')] in the lower-bound
    construction). *)

val assigned_size_in : t -> Pmp_machine.Submachine.t -> int
(** Cumulative size of active tasks whose submachine intersects the
    given one ([L(T')] in the lower-bound construction). For tasks no
    larger than the submachine this equals the size assigned wholly
    inside it. *)

val tasks_inside : t -> Pmp_machine.Submachine.t -> Pmp_workload.Task.t list
(** Active tasks placed wholly inside the submachine. *)

val imbalance : t -> float
(** [max PE load /. mean PE load] over the whole machine, [O(1)] from
    the load index; [nan] when the machine is idle. *)

val loads_at_order : t -> order:int -> int array
(** Max PE load of every aligned order-[x] window, leftmost first
    (heatmap column sampling). *)

val leaf_loads : t -> int array

val check_against : t -> Allocator.t -> (unit, string) result
(** Cross-validate the mirror against the allocator's own placement
    table (same active set, same homes). Used in checked simulation
    mode, by the conformance oracle and by the daemon's recovery audit.

    Cost: O(1 + moves) per call when called after every event. The
    mirror keeps a cursor into both tables' write journals (see
    {!Ptable}) and compares only the ids written on either side since
    its last clean check. It falls back to the full O(active)
    comparison on the first call, against a different allocator, when
    more than {!Ptable.journal_size} writes happened on either side
    since the last check (a repack that rewrites every task), and on
    any disagreement. The verdict and its message are therefore always
    exactly those of the full comparison. *)
