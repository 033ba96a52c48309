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
    cancel them. Every mutation updates the running statistics. *)

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
    tasks are visible through {!placement}. *)

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
val machine_size : t -> int

val events : t -> Pmp_workload.Event.t list
(** The allocator-visible history as a plain event list, oldest first —
    the same events {!history} validates into a sequence. This is the
    externalisable state: together with {!queued_tasks}, {!next_id} and
    the submit/complete counters it determines the cluster exactly (see
    {!restore}). *)

val queued_tasks : t -> (Pmp_workload.Task.id * int) list
(** Queued [(id, size)] pairs in FIFO admission order. *)

val next_id : t -> int
(** The id the next submission will receive. *)

val policy : t -> policy

val admission_capacity : t -> int option
(** The capacity in PEs ([cap *. machine_size] truncated), or [None]
    for the paper's unlimited real-time model. *)

val restore :
  machine_size:int ->
  policy:policy ->
  ?admission_cap:float option ->
  events:Pmp_workload.Event.t list ->
  queued:(Pmp_workload.Task.id * int) list ->
  next_id:int ->
  submitted:int ->
  completed:int ->
  unit ->
  (t, string) result
(** Rebuild a cluster from externalised state: replays [events] through
    a fresh allocator of [policy] (allocator internals, mirror, peak
    load and migration counters are deterministic functions of the
    history), then re-enqueues [queued] and installs the counters.
    Errors if the history is not a valid sequence, a queued task
    collides with a history id or violates the admission rules, or the
    counters do not balance the live tasks. *)

val history : t -> Pmp_workload.Sequence.t
(** The traffic the {e allocator} has seen so far — admissions as
    arrivals (in admission order, so queued tasks appear when they were
    actually placed) and completions of admitted tasks as departures.
    Always a valid sequence; replay it through {!Pmp_sim.Engine} to
    compare alternative policies on exactly the traffic a live cluster
    served ("what would d = 4 have cost us yesterday?"). *)
