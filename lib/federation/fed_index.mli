(** The second-level summaries: which shard should host the next
    task?

    This is the paper's greedy choice rule applied one level up the
    hierarchy. Where a shard's own allocator asks "which size-[2{^k}]
    submachine has minimum max load?", the federation router asks
    "which {e whole machine} has minimum max load?" — and answers it
    with {!Pmp_util.Sharding.pick}, the scan a sharded pmpd's cores
    also place by, over the [M] summaries kept here.

    Each summary is the max PE load the shard last reported (from a
    stats poll) combined with an optimistic local estimate of load
    routed since that poll — every placement the router forwards bumps
    the estimate immediately (the piggybacked half of freshness), and
    the next poll snaps it back to truth. A down shard is never
    picked. *)

type t

val create : shard_sizes:int array -> capacities:int option array -> t
(** One summary per shard; [shard_sizes.(s)] is shard [s]'s machine
    size (each a power of two), [capacities.(s)] its admission capacity
    in PEs when it has one. All shards start up with zero load.
    @raise Invalid_argument on empty or mismatched arrays. *)

val up : t -> int -> bool
val set_up : t -> int -> bool -> unit
(** A shard marked down is never picked and {!load} reports it as
    [2{^30}]; marking it up restores the last summary. *)

val observe : t -> int -> max_load:int -> active_size:int -> unit
(** Install a polled summary for one shard, resetting the optimistic
    routed-since-poll estimate. *)

val note_submit : t -> int -> size:int -> unit
(** Optimistically account a placement routed to the shard: load
    estimates rise immediately rather than waiting for the next
    poll. *)

val note_finish : t -> int -> size:int -> unit

val load : t -> int -> int
(** The current summary load of one shard — the value {!pick}
    minimises. *)

val pick : t -> size:int -> int option
(** The routing decision: the {e leftmost} up shard of minimum
    summary load among those that can structurally host a task of
    [size] ([size <= shard_size]), preferring shards with admission
    headroom ([active_est + size <= capacity]) over shards that would
    queue the task. [None] when no up shard can host the size. One
    [O(M)] scan. *)
