(** The federation router: many tree machines behind one allocator.

    A router sits in front of [M] independent pmpd shards — each a
    {!Pmp_server.Server} over its own disjoint machine
    — and speaks the existing wire protocol on both sides, so a
    federated endpoint is a drop-in replacement for a single shard.
    Placement is the paper's greedy rule one level up: each submit
    goes to the up shard with the minimum summary max-load
    ({!Fed_index}), ids are shard-tagged ({!Fed_id}) with a ledger
    overlay for tasks re-homed by failover or rebalancing, per-tenant
    admission quotas are enforced router-side on top of each shard's
    own [Cluster.admission_capacity], and rid-tagged responses carry
    the serving shard so clients can attribute throughput.

    Periodic work rides the event loop's tick: stats polls refresh
    the index summaries, health probes reconnect and re-mark downed
    shards, and a {!Rebalance} round drains tasks from the hottest to
    the coldest shard under a migration budget, audited against the
    shards' own accounting after every round.

    {b The pipelined hop.} Each batch of client frames the event loop
    hands {!handle_conn} crosses to the shards in two phases. The
    issue phase walks the requests in client order: every [submit],
    [finish] and [query] picks its shard (quota check, {!Fed_index}
    pick, ledger lookup) and is encoded into that shard's upstream
    buffer, with the index and the tenant's quota updated as if it had
    already succeeded. The completion phase flushes each touched shard
    once, reads its replies in order, applies them (ledger, global
    bases), and answers the client in its own order; a refused or
    queued reply undoes its optimistic update. Placements are
    therefore those of a router that forwards one request at a time
    whenever shards answer [placed] or [finished]. The batch is cut —
    completed before the next request is issued — when a [finish] or
    [query] names a task whose [finish] is in flight, or one the
    ledger does not know while submits are in flight; before every
    other request ([stats], [loads], [metrics], [health], [ping],
    [snapshot], [shutdown]; those that fan out are one batch to every
    up shard); and at a frame that fails to decode. Polls,
    probes, rebalance moves and audits take the same batch code: no
    request reaches a shard any other way.

    {b Ordering and durability.} Every client frame gets exactly one
    reply, in the order the frames arrived. A reply is written only
    after the shard's own reply has been read, and a shard writes a
    reply only after its group commit has made the request durable
    ({!Pmp_server.Loop}); so an acknowledgement through the router is
    as durable as one straight from the shard. [fed_requests_total]
    over [fed_upstream_batches_total] (one per shard flush) is the
    average batch a shard's group commit sees from the router.

    On an upstream failure the replies of the healthy shards are read
    first and applied; then the shard is marked down, its queued tasks
    are re-admitted to healthy shards under the same federated ids,
    and the dead shard's unanswered submits fail over through the
    normal pick (its unanswered finishes and queries answer an error)
    — at-least-once semantics: a crashed shard's WAL may keep an
    orphan copy of a re-routed task, which its own recovery audits but
    the ledger no longer points at. No acknowledged task is ever lost:
    every acked id resolves on a healthy shard, or again on the
    crashed shard once a probe brings it back. *)

type config = {
  sockets : string array;  (** one upstream Unix socket per shard *)
  tenant_quota : float option;
      (** per-tenant cap on admitted PEs, as a multiple of the
          aggregate machine size; [None] = no tenant quotas *)
  poll_interval : float;  (** seconds between stats polls *)
  probe_interval : float;  (** seconds between down-shard probes *)
  rebalance : Rebalance.config option;
  rebalance_interval : float;
  shutdown_shards : bool;
      (** forward [shutdown] to every up shard before stopping — for
          routers that own their shards *)
  dir : string;  (** flight-recorder dumps land here *)
  recorder_size : int;
}

val default_config : sockets:string array -> dir:string -> config
(** No tenant quotas, 0.5 s polls, 0.5 s probes, no rebalancing,
    [shutdown_shards = false], recorder of 4096 entries. *)

type t

val create : config -> (t, string) result
(** Connect to every shard and learn its machine size (every shard
    must be reachable and ready at creation; failures {e after} that
    are handled by mark-down and probes). *)

val shards : t -> int
val aggregate_size : t -> int

val shard_up : t -> int -> bool

val handle_conn :
  t ->
  Pmp_server.Netbuf.t ->
  Pmp_server.Netbuf.t ->
  budget:int ->
  [ `Handled of int | `Stop of int ]
(** The loop handler: consume up to [budget] complete requests (either
    encoding) from the in-buffer as one pipelined batch, append their
    responses to the out-buffer in request order. Requests are found,
    and refused, by {!Pmp_server.Frame.read}, as in pmpd. The in-buffer
    also names the connection, which is the tenant. Exposed for
    in-process tests and benchmarks. *)

val tick : t -> float
(** Run due periodic work (polls, probes, rebalance, requested
    recorder dumps); returns the select-timeout cap. Exposed for
    in-process tests. *)

val serve : t -> listeners:Unix.file_descr list -> unit
(** Run the event loop until a [shutdown] request. Dumps the flight
    recorder to [dir/flightrec.jsonl] on abnormal exit or [SIGUSR1].
    A closed client connection gives back its tenant slot
    ([fed_connections] counts the open ones). *)

val dump_recorder : t -> string
(** Dump the flight ring now; returns the path written. *)

val close : t -> unit
(** Close every upstream connection. *)
