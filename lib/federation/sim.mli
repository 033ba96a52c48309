(** An in-process federation: {!Route}, the router's routing core, over
    [M] in-memory {!Pmp_cluster.Cluster}s, polling every shard after
    each op so summaries are exact. It makes no decision of its own,
    so a live router that polls after every request routes each op as
    [Sim] does; the test suite checks that over real sockets, and
    replays each shard's slice of a run through an independent
    cluster. The regress gate pins its verdict on a scripted workload. *)

type op =
  | Submit of { size : int; tenant : int }
  | Finish of int
      (** finish the [n]-th acknowledged task (ignored when out of
          range or already finished) *)

type decision =
  | Routed of int  (** submit placed or queued on this shard *)
  | Rejected  (** tenant quota, no shard fits, or the shard refused *)
  | Finished_on of int
  | Noop  (** finish of an out-of-range or dead id *)

type result = {
  decisions : decision array;  (** one per op, in op order *)
  stats : Pmp_cluster.Cluster.stats array;  (** final, per shard *)
  routed : int array;  (** submits routed per shard *)
  rejects : int;
  rebalanced : int;  (** tasks migrated across shards *)
  rebalanced_bytes : int;
}

val run :
  shards:int ->
  machine_size:int ->
  ?admission_cap:float option ->
  ?tenant_quota:int ->
  ?rebalance:Rebalance.config * int ->
  ops:op list ->
  unit ->
  (result, string) Stdlib.result
(** [machine_size] is per shard. [tenant_quota] is a per-tenant cap on
    admitted PEs across the whole federation. [rebalance (config, n)]
    runs a {!Route.rebalance} round before every [n]-th op.
    Deterministic: same arguments, same result. *)

val script : seed:int -> ops:int -> machine_size:int -> tenants:int -> op list
(** The canonical scripted workload for goldens: a seeded churn mix
    of power-of-two submits (sizes up to [machine_size / 4]) spread
    over [tenants] tenants, interleaved with finishes of earlier
    acks. Deterministic in [seed]. *)
