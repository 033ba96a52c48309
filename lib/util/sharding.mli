(** The arithmetic of a sharded machine, at both levels of the
    hierarchy: the K shards of one daemon and the M daemons of a
    federation.

    A machine of [N] PEs served by [K] worker domains is partitioned
    into [K] disjoint aligned subtrees of [N/K] leaves; shard [s] owns
    the leaf range [[s*N/K, (s+1)*N/K)]. Each shard runs an
    independent allocator (its own {!Pmp_index.Load_index} over its
    own subtree), so the only shared state is explicit messages — but
    ids, leaf numbers and statistics must all be translated between
    the shard-local and the global view. This module is that
    translation and the placement rule both levels share, kept pure so
    every property (bijectivity of the id map, exactly-one-owner, the
    leftmost minimum) is testable without spawning a single domain.

    {b Ids are interleaved}, not blocked: shard [s]'s [i]-th task gets
    global id [i*K + s]. The owner of any global id is therefore
    [id mod K] — any client-visible id routes to its shard with no
    routing table, and the id sequences of different shards never
    collide no matter how unevenly traffic lands. The id functions take
    any [K >= 1]: a federation's shards are whole machines, so their
    count need not be a power of two. *)

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

val leaf_offset : plan -> int -> int
(** First global leaf of a shard's subtree: [shard * shard_size]. *)

val conn_shard : plan -> int -> int
(** Home shard of the [n]-th accepted connection (round-robin hash):
    connection affinity keeps a client's finish and query traffic on
    one shard, so those never cross a domain boundary for its own
    tasks placed at home. *)

(** {2 Ids} *)

val global_id : shards:int -> shard:int -> int -> int
(** [global_id ~shards ~shard local] = [local * shards + shard]. *)

val local_id : shards:int -> int -> int
(** [local_id ~shards g] = [g / shards]. *)

val owner : shards:int -> int -> int
(** [owner ~shards g] = [g mod shards] — the shard whose cluster
    assigned [g]. *)

(** {2 Placement} *)

val pick :
  ?home:int ->
  shards:int ->
  fits:(int -> bool) ->
  headroom:(int -> bool) ->
  (int -> int) ->
  int option
(** [pick ~shards ~fits ~headroom load] is the paper's greedy choice
    one level up: the {e leftmost} shard of least [load] among those
    that [fits] and have admission [headroom], falling back to the
    leftmost least among those that merely [fits] (the shard will queue
    the task); [None] when none fits. With [home], home wins a tie
    with that choice in the same tier, which keeps a submit off the
    peers when it would gain nothing there. *)
