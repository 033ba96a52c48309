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

type state = {
  tasks : (Pmp_workload.Task.t * Placement.t) list;
      (** every active task and its home, ascending id *)
  arrived : int;
      (** PEs arrived since the last repack — the [d * N] trigger of
          [A_M] and the hybrid; 0 for allocators that never repack *)
  repacks : int;  (** reallocation events so far ([realloc_events]) *)
  rng : int64;  (** PRNG state ({!Pmp_prng.Splitmix64.state}); 0 if none *)
}
(** Everything an allocator's future decisions depend on. The paper's
    allocators decide from the current assignment and a few scalars,
    so this is O(live tasks) however long the allocator has run; copy
    stacks, buddies and load views are rebuilt from the placements,
    which determine them. Each policy's [create] takes it back as
    [?state]. *)

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
          event touched. Load-aware allocators place from the table's
          own load view ({!Ptable.loads}); a caller that asks for it
          gets that same view. *)
  realloc_events : unit -> int;
      (** number of reallocation (repack) operations performed. *)
  export : unit -> state;
      (** the current state; an allocator of the same kind created
          from it answers every later request exactly as this one
          does. Allocators no cluster policy uses raise
          [Invalid_argument] (see {!no_export}). *)
}

val state_of :
  ?arrived:int -> ?repacks:int -> ?rng:int64 -> Ptable.t -> state
(** A {!state} from a placement table (sorted by id) and the scalars
    (default 0). *)

val no_export : string -> unit -> state
(** [export] for an allocator that has no restorable state (baselines,
    ablations, test mutants): raises [Invalid_argument] naming it. *)

val check_state : Pmp_machine.Machine.t -> state -> (unit, string) result
(** What any allocator's state must satisfy before a [create ?state]
    may load it: ids distinct and ascending; sizes powers of two that
    fit the machine; every placement inside the machine, on a copy
    [>= 0] and exactly its task's size; counters non-negative. A copy
    stack additionally refuses two placements overlapping on one copy
    when it loads them. *)

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
