(** The placement table: every active task and where it sits.

    Every allocator and every {!Mirror} keeps one. The type is abstract
    so that the only way to change a placement is {!replace} or
    {!remove}, and both journal the id they wrote: a monotone write
    counter plus a fixed ring holding the ids of the last
    {!journal_size} writes. Journalling is an [int] store, so a write
    allocates exactly what the underlying [Hashtbl] write does.

    The journal is what lets {!Mirror.check_against} compare only the
    ids written since its previous check instead of the whole table. *)

type t

val create : int -> t
(** [create n] is an empty table sized for about [n] tasks. *)

val replace : t -> Pmp_workload.Task.t -> Placement.t -> unit
(** Set the task's home (keyed by its id) and journal the id. *)

val remove : t -> Pmp_workload.Task.id -> unit
(** Drop the task, if present, and journal the id. *)

val find : t -> Pmp_workload.Task.id -> Pmp_workload.Task.t * Placement.t
(** @raise Not_found if the task is not in the table. *)

val find_opt :
  t -> Pmp_workload.Task.id -> (Pmp_workload.Task.t * Placement.t) option

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
