(** The online allocator interface.

    An allocator must answer each arrival with a submachine of the
    task's size knowing only the sizes seen so far and its own previous
    assignments — never the future (§2 of the paper). Some allocators
    additionally relocate already-active tasks when their reallocation
    budget allows; those moves are reported alongside the triggering
    arrival so the simulator can account load changes and migration
    traffic.

    Allocators are first-class values (a record of operations closing
    over private state, plus the placement table they maintain)
    because different algorithms need different construction
    parameters ([d], a PRNG, a fit policy) while the simulator, the
    adversaries, and the benchmarks drive them uniformly. *)

type move = {
  task : Pmp_workload.Task.t;
  from_ : Placement.t;
  to_ : Placement.t;
}
(** One task relocated by a reallocation. *)

type response = {
  placement : Placement.t;  (** where the arriving task was put *)
  moves : move list;
      (** tasks relocated by the reallocation (if any) that this
          arrival triggered; excludes the arriving task itself *)
}

type t = {
  name : string;
  machine : Pmp_machine.Machine.t;
  assign : Pmp_workload.Task.t -> response;
  remove : Pmp_workload.Task.id -> unit;
      (** departure of an active task. Implementations may raise
          [Invalid_argument] on unknown ids. *)
  table : Ptable.t;
      (** all active tasks and their current homes. [assign] and
          [remove] keep it current; every write is journalled, which
          is what lets {!Mirror.check_against} audit only the tasks an
          event touched. *)
  realloc_events : unit -> int;
      (** number of reallocation (repack) operations performed. *)
}

val placements : t -> (Pmp_workload.Task.t * Placement.t) list
(** All active tasks and their current homes, read from [table]. *)

val check_response :
  ?active:(Pmp_workload.Task.id -> bool) ->
  t -> Pmp_workload.Task.t -> response -> (unit, string) result
(** Structural validity of a response: the placement's submachine has
    exactly the task's size and lies inside the machine; every move
    preserves its task's size and both its source and destination lie
    inside the machine; no task is moved twice and the arriving task is
    never listed as a move. When [active] is given, moves of ids for
    which it returns [false] (departed or never-seen tasks) are also
    rejected. Used by the simulator in checked mode, the conformance
    oracle, and the test suite. *)
