(** The federation's routing core: every decision the router makes.

    A submit goes to the up shard of least summary load ({!Fed_index},
    the paper's greedy min-of-max rule one level up). A task's
    federated id is [local * M + shard] ({!Pmp_util.Sharding}'s
    interleaving, the same as a sharded pmpd's), so any id names its
    {e birth} shard. [Route] also keeps the ledger of where each task
    it routed lives now, which differs from its birth shard after a
    failover re-admission or a rebalance move, each tenant's admitted
    PEs against its quota, and what is in flight in the client batch;
    it re-admits a dead shard's queue and runs {!Rebalance} rounds. It
    is pure: no socket, no clock, no metrics registry. {!Router} is
    [Route] plus I/O; {!Sim} is [Route] over in-memory clusters.

    {b The index.} {!issue} of a submit raises the picked shard's
    estimate, so later picks in the batch see it, and {!settle} keeps
    the raise only for [Placed]. {!issue} of a finish lowers an active
    task's shard, and {!settle} restores it on a refusal. {!observe}
    (a poll) installs a shard's stats; {!mark_down} poisons its leaf
    and {!mark_up} restores it. A {!rebalance} round's audit fetches
    [stats] from every shard it touched and observes them. *)

module Protocol = Pmp_server.Protocol

type t

type call = int -> Protocol.request -> (Protocol.response, string) result
(** One request to a shard and its reply. [Error]: the shard failed,
    and the caller has marked it down. *)

val create :
  shard_sizes:int array ->
  capacities:int option array ->
  quota:int option ->
  (t, string) result
(** All shards up and idle; [capacities] and the per-tenant [quota]
    are in PEs. *)

val load : t -> int -> int
(** A shard's summary load, the value the pick minimises. *)

(** {2 Client requests} *)

type pending

type issued =
  | Answer of Protocol.response * int option  (** and the shard named *)
  | Call of int * Protocol.request * pending
      (** send to the shard, then {!settle} the reply *)

val issue : t -> tenant:int -> Protocol.request -> issued
(** A [submit], [finish] or [query]. A finish or query of an id the
    ledger lacks — a task an earlier router routed, or no task — is a
    call to the birth shard the id names, for its local id there; that
    shard answers with authority for every task never moved. A
    negative id, and an id the birth shard refuses, answer as a ledger
    miss always did: [unknown or finished task] for a finish, [task N
    unknown] for a query, and so does an id naming the slot a task
    this router moved landed in, which no client was issued. A down
    birth shard answers [shard N down], as for a ledger entry. A
    restarted router knows neither where its predecessor moved a task
    nor the slots those moves landed in.
    @raise Invalid_argument on any other request. *)

val settle :
  t ->
  pending ->
  (Protocol.response, string) result ->
  (Protocol.response * int option) option
(** The client's response and the serving shard; [None] for a submit
    whose shard failed, for {!failover} once the shard is down. *)

val failover : t -> call:call -> pending -> Protocol.response * int option
(** Pick again for a failed submit. @raise Invalid_argument otherwise. *)

val request :
  t ->
  call:call ->
  tenant:int ->
  Protocol.request ->
  Protocol.response * int option
(** {!issue}, [call] and {!settle}: one request on its own. *)

val overtakes : t -> Protocol.request -> bool
(** A [finish] or [query] that must wait for the batch in flight: it
    names a task whose finish is in flight, or an id the ledger lacks
    while submits are in flight. *)

val tenants : t -> int
(** Tenants holding admitted PEs; one back at 0 is forgotten. *)

(** {2 Shard events} *)

val observe : t -> int -> Pmp_cluster.Cluster.stats -> unit

val mark_down : t -> call:call -> int -> unit
(** Stop picking the shard and re-admit its queued tasks elsewhere
    under the same ids (at-least-once: its WAL may revive orphans).
    No-op on a shard already down. *)

val mark_up : t -> int -> Pmp_cluster.Cluster.stats -> unit

val rebalance : t -> call:call -> Rebalance.config -> unit
(** Plan a round; replay each move on its destination, then drain its
    source (a refused drain undoes the replay); then audit each
    touched shard (its [loads] must sum to its active size and peak at
    its max load) and observe its [stats]. *)

(** {2 Counters} *)

type counts = private {
  routed : int array;  (** submits and re-admissions, per shard *)
  mutable rejects : int;  (** submits [Route] itself refused *)
  mutable readmitted : int;
  mutable rebalanced : int;
  mutable rebalanced_bytes : int;
  mutable audit_failures : int;
}

val counts : t -> counts
