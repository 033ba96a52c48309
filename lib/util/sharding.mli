(** The arithmetic of a domain-sharded machine.

    A machine of [N] PEs served by [K] worker domains is partitioned
    into [K] disjoint aligned subtrees of [N/K] leaves; shard [s] owns
    the leaf range [[s*N/K, (s+1)*N/K)]. Each shard runs an
    independent allocator (its own {!Pmp_index.Load_index} over its
    own subtree), so the only shared state is explicit messages — but
    ids, leaf numbers and statistics must all be translated between
    the shard-local and the global view. This module is that
    translation, plus the steal policy, kept pure so every property
    (bijectivity of the id map, exactly-one-owner, never-steal-to-self)
    is testable without spawning a single domain.

    {b Ids are interleaved}, not blocked: shard [s]'s [i]-th task gets
    global id [i*K + s]. The owner of any global id is therefore
    [id mod K] — any client-visible id routes to its shard with no
    routing table, and the id sequences of different shards never
    collide no matter how unevenly traffic lands. *)

type plan = private {
  shards : int;  (** K; a power of two *)
  machine_size : int;  (** N *)
  shard_size : int;  (** N/K — also the largest task a shard can host *)
}

val plan : machine_size:int -> shards:int -> (plan, string) result
(** Errors unless [shards] is a power of two with
    [1 <= shards <= machine_size] (and [machine_size] itself a power
    of two). Note a plan with [shards = 1] is degenerate-but-valid:
    every translation is the identity. *)

val global_id : plan -> shard:int -> int -> int
(** [global_id p ~shard local] = [local * K + shard]. *)

val local_id : plan -> int -> int
(** [local_id p g] = [g / K]. *)

val owner : plan -> int -> int
(** [owner p g] = [g mod K] — the shard whose cluster assigned [g]. *)

val leaf_offset : plan -> int -> int
(** First global leaf of a shard's subtree: [shard * shard_size]. *)

val conn_shard : plan -> int -> int
(** Home shard of the [n]-th accepted connection (round-robin hash):
    connection affinity keeps a client's submit/finish traffic on one
    shard, so the common case never crosses a domain boundary. *)

val pick_victim :
  plan ->
  self:int ->
  size:int ->
  cap_pes:int option ->
  queued:int array ->
  active:int array ->
  int option
(** The work-stealing fallback, consulted when [self]'s admission
    queue runs hot: choose the shard that should admit a task of
    [size] instead. [queued].(s) and [active].(s) are each shard's
    published queued-task count and active PE-size (read from the
    shared atomics — stale by at most one batch, which only ever makes
    the choice suboptimal, never wrong). Returns a shard with no
    queue whose admission capacity ([cap_pes], per shard) fits the
    task, preferring the least loaded and breaking ties leftward;
    [None] (admit locally) when no shard is strictly better or the
    task cannot fit anywhere. Never returns [self]. *)
