(** The operator facade: one object that composes admission control,
    a processor-allocation policy, and live accounting.

    The rest of the library is organised for experiments (explicit
    sequences, replayed engines). A system embedding this work wants
    the inverse shape: a long-lived machine object it can push
    submissions and completions into and query for load. [Cluster]
    provides that, with the paper's algorithms behind a policy knob:

    {[
      let cluster =
        Cluster.create ~machine_size:256
          ~policy:(Cluster.Periodic (Pmp_core.Realloc.Budget 2))
          ~admission_cap:(Some 2.0) ()
      in
      match Cluster.submit cluster ~size:16 with
      | Ok (Placed (id, placement)) -> ...
      | Ok (Queued id) -> (* will be placed when capacity frees *) ...
      | Error msg -> ...
    ]}

    All ids are allocated by the cluster; completions of queued tasks
    cancel them. Every mutation updates the running statistics.

    The cluster keeps no second copy of the allocation: placements,
    counts, the active size and every load are read from the
    allocator's own placement table and the load view it keeps
    ({!Pmp_core.Ptable.loads}). What it still checks of every decision
    is {!checked_assign}'s. *)

type policy =
  | Greedy
  | Copies
  | Optimal
  | Periodic of Pmp_core.Realloc.t
  | Hybrid of Pmp_core.Realloc.t
  | Randomized of int  (** seed *)

val policy_name : policy -> string

type t

val create :
  machine_size:int ->
  policy:policy ->
  ?admission_cap:float option ->
  unit ->
  (t, string) result
(** [admission_cap] (default [None] = the paper's real-time model)
    caps the cumulative active size at [cap *. machine_size]; excess
    submissions queue FIFO. *)

type submission = Placed of Pmp_workload.Task.id * Pmp_core.Placement.t
                | Queued of Pmp_workload.Task.id

val submit : t -> size:int -> (submission, string) result
(** Errors on a size that is not a power of two or exceeds the machine
    (or the admission capacity). *)

val finish : t -> Pmp_workload.Task.id -> (unit, string) result
(** Completion (or cancellation of a queued submission). Frees
    capacity and admits queued work; the placements of newly admitted
    tasks are visible through {!placement}. A cancellation costs O(1)
    amortised, whatever the queue's depth. *)

val placement : t -> Pmp_workload.Task.id -> Pmp_core.Placement.t option
(** [None] when the task is queued, finished, or unknown. *)

val is_queued : t -> Pmp_workload.Task.id -> bool

type stats = {
  submitted : int;
  completed : int;
  queued_now : int;
  active_now : int;
  active_size : int;
  max_load : int;  (** current *)
  peak_load : int;  (** high-water mark over the cluster's lifetime *)
  optimal_now : int;  (** [ceil (active_size / N)] *)
  reallocations : int;
  tasks_migrated : int;
}

val stats : t -> stats

val merge_stats : machine_size:int -> stats list -> stats
(** Combine the statistics of clusters that partition a machine of
    [machine_size] PEs into the view one cluster over the whole machine
    would report: counts add, the load fields take the max, and
    [optimal_now] is recomputed at [machine_size].
    @raise Invalid_argument on an empty list. *)

val leaf_loads : t -> int array

val window_load : t -> order:int -> int
(** The least max PE load over the order-[order] windows: how loaded
    the window is that a greedy submit of size [2{^order}] lands on. *)

val machine_size : t -> int

val queued_tasks : t -> (Pmp_workload.Task.id * int) list
(** Queued [(id, size)] pairs in FIFO admission order. *)

val next_id : t -> int
(** The id the next submission will receive. *)

val policy : t -> policy

val admission_capacity : t -> int option
(** The capacity in PEs ([cap *. machine_size] truncated), or [None]
    for the paper's unlimited real-time model. *)

(** {2 Externalised state}

    A cluster is determined by its configuration (machine size, policy,
    admission cap) and a {!state}: the live placements and the
    allocator's scalars, the queue, and the counters. Its size is
    O(live tasks + queued tasks), however long the cluster has run;
    the cluster keeps no event history. *)

type state = {
  next_id : int;
  submitted : int;
  completed : int;
  peak_load : int;  (** lifetime high-water mark, as {!stats} reports *)
  tasks_migrated : int;
  queued : (Pmp_workload.Task.id * int) list;  (** FIFO order *)
  alloc : Pmp_core.Allocator.state;
      (** the live placements, the arrivals since [A_M]'s (or the
          hybrid's) last repack, the repack count ([reallocations]) and
          the PRNG state of [Randomized] *)
}

val export : t -> state
(** O(live) capture; equal clusters export equal states. *)

val import :
  machine_size:int ->
  policy:policy ->
  ?admission_cap:float option ->
  state ->
  (t, string) result
(** The cluster an {!export} came from: it answers every later request
    exactly as the exporting cluster would, with the same placements,
    queue, ids and {!stats}. Loads, copy stacks and buddies are rebuilt
    from the placements. The state is checked structurally first and
    refused, with the cause named, unless:
    - {!Pmp_core.Allocator.check_state} holds (distinct ascending ids,
      power-of-two sizes within the machine, placements inside the
      machine and exactly their task's size);
    - under a copy-stack policy ([Copies], [Optimal], [Periodic]'s
      copy branch) no two placements overlap on one copy;
    - every placed and queued id is distinct and below [next_id], and
      copy numbers are below [submitted];
    - queued tasks exist only under an admission cap, have admissible
      sizes, and the queue head does not fit (it would have been
      admitted); the active size is within the cap;
    - [completed <= submitted <= next_id], and [submitted - completed]
      is the number of live plus queued tasks;
    - [peak_load] is at least the recomputed current load, and
      [tasks_migrated] is non-negative. *)

(** {2 Auditing} *)

val checked_assign :
  Pmp_core.Allocator.t -> Pmp_workload.Task.t -> Pmp_core.Allocator.response
(** [alloc.assign task] with the checks a cluster makes of every
    admission: the arriving id is not already placed, and each move the
    response reports ends where the allocator's table now holds that
    task. @raise Invalid_argument naming the task otherwise. *)

val start_audit : t -> Pmp_oracle.Oracle.spec -> unit
(** Check every allocator decision from now on — each admission's
    response and each departure — with an
    {!Pmp_oracle.Oracle.Observer} created over the allocator as it
    stands, so its mirror starts from the current placements. Recovery
    uses this to audit the WAL tail it replays onto an imported
    snapshot. *)

val finish_audit : t -> (unit, Pmp_oracle.Oracle.violation) result
(** Stop auditing: the first violation seen since {!start_audit}, if
    any. *)
