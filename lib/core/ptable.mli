(** The placement table: every active task and where it sits — the one
    model of an allocation.

    Every allocator keeps one, and so does every {!Mirror}, the
    observer that checks an allocator from outside it. The type is
    abstract so that the only way to change a placement is {!replace}
    or {!remove}, and both journal the id they wrote: a monotone write
    counter plus a fixed ring holding the ids of the last
    {!journal_size} writes. Journalling is an [int] store, so a write
    allocates exactly what the underlying [Hashtbl] write does.

    The journal is what lets {!Mirror.check_against} compare only the
    ids written since its previous check instead of the whole table.

    A table also indexes its own per-PE loads, once asked: the first
    {!loads} call builds a {!Pmp_index.Load_index} from the entries, and
    from then on every {!replace} and {!remove} keeps it current. That
    view is the only load accounting a table's owner needs. A table
    nobody asks about carries no view, and its writes cost what they
    would without one. *)

type t

val create : int -> t
(** [create n] is an empty table sized for about [n] tasks. *)

val replace : t -> Pmp_workload.Task.t -> Placement.t -> unit
(** Set the task's home (keyed by its id) and journal the id. With a
    view, the task's load moves from its old submachine to the new one;
    a move between copies of the same submachine touches no load. *)

val remove :
  t -> Pmp_workload.Task.id -> Pmp_workload.Task.t * Placement.t
(** Drop the task, journal the id and return the entry it had; with a
    view, its load goes too. @raise Not_found if the task is not in the
    table (which is then left as it was). *)

val loads : t -> Pmp_machine.Machine.t -> Pmp_index.Load_index.t
(** [loads t m] is the table's view of the per-PE loads on [m]: every
    PE counts the entries whose submachine covers it (the paper's load,
    whatever the copy). The first call builds the view over the current
    entries, one {!Pmp_index.Load_index.range_add} each; later calls
    return that same view.
    The view is the table's: read it, but change loads only through
    {!replace} and {!remove}. *)

val find : t -> Pmp_workload.Task.id -> Pmp_workload.Task.t * Placement.t
(** @raise Not_found if the task is not in the table. *)

val find_opt :
  t -> Pmp_workload.Task.id -> (Pmp_workload.Task.t * Placement.t) option

val placement : t -> Pmp_workload.Task.id -> Placement.t option
(** The task's home; [None] if it is not in the table. *)

val mem : t -> Pmp_workload.Task.id -> bool
val length : t -> int

val fold :
  (Pmp_workload.Task.t * Placement.t -> 'acc -> 'acc) -> t -> 'acc -> 'acc

val to_list : t -> (Pmp_workload.Task.t * Placement.t) list
(** Every entry, in the table's (unspecified but deterministic) order. *)

val journal_size : int
(** How many of the most recent writes the ring remembers (64). *)

val writes : t -> int
(** Number of {!replace} and {!remove} calls so far. *)

val for_all_written :
  t -> since:int -> (Pmp_workload.Task.id -> bool) -> bool
(** [for_all_written t ~since f] is [true] when every id written after
    the moment [writes t] was [since] satisfies [f]. It is [false]
    when some id fails [f], and also when more than {!journal_size}
    writes happened since then, because the ring no longer holds them
    all. *)
