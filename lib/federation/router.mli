(** The federation router: many tree machines behind one allocator.

    A router sits in front of [M] independent pmpd shards and speaks
    the wire protocol on both sides, so a federated endpoint is a
    drop-in replacement for a single shard. {!Route} makes every
    routing decision; the router adds the sockets, the event loop,
    metrics and the flight recorder. Each connection is a tenant, and
    rid-tagged responses carry the serving shard. Its tick polls stats
    into {!Route.observe}, probes down shards back in and runs
    {!Route.rebalance} rounds. Each poll also takes the federation's
    load ratio — the largest shard load over the whole federation's
    L* — whose rolling p99 the merged metrics report as
    [pmpd_p99_load_ratio], where a shard's own ratio divides by its
    own L*.

    {b The pipelined hop.} {!handle_conn} issues a batch of client
    requests in client order, each to its shard's upstream buffer,
    then flushes each touched shard once, reads its replies in order
    and settles them ({!Route.issue}, {!Route.settle}): placements are
    those of a router forwarding one request at a time. The batch is
    cut before a request {!Route.overtakes} names, before any other
    request (a fan-out is one batch to every up shard), and at a frame
    that fails to decode. Polls, probes and {!Route}'s calls (each a
    batch of one) take the same batch code.

    {b Ordering and durability.} Every frame gets one reply, in arrival
    order, written only after the shard's reply, which the shard sends
    only after its group commit: an ack through the router is as
    durable as one from the shard. On an upstream failure the healthy
    shards' replies are settled first; then the shard is marked down
    ({!Route.mark_down}), its unanswered submits fail over and its
    unanswered finishes and queries answer an error. Every acked id
    resolves on a healthy shard, or on the crashed one once a probe
    brings it back. *)

type config = {
  sockets : string array;  (** one upstream Unix socket per shard *)
  tenant_quota : float option;
      (** per-tenant cap on admitted PEs, as a multiple of the
          aggregate machine size; [None] = no tenant quotas *)
  poll_interval : float;
      (** seconds between rounds of stats polls and down-shard probes *)
  rebalance : Rebalance.config option;
  rebalance_interval : float;
  shutdown_shards : bool;
      (** forward [shutdown] to every up shard before stopping — for
          routers that own their shards *)
  dir : string;  (** flight-recorder dumps land here *)
  recorder_size : int;
}

val default_config : sockets:string array -> dir:string -> config
(** No tenant quotas, polls and probes every 0.5 s, no rebalancing,
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
(** The loop handler: consume up to [budget] complete requests from the
    in-buffer as one pipelined batch, append their responses to the
    out-buffer in request order. Requests are found, and refused, by
    {!Pmp_server.Frame.read}, as in pmpd: a refused message, a JSON
    line among them, is answered with one error frame, recorded as a
    failed request of op 0 and counted in the [pmpd_errors_total] the
    merged metrics report. The in-buffer also names the connection,
    which is the tenant. Exposed for in-process tests and benchmarks. *)

val tick : t -> float
(** Run due periodic work (polls, probes, rebalance, requested
    recorder dumps); returns the select-timeout cap. Exposed for
    in-process tests: with [poll_interval = 0] every tick polls every
    shard, as {!Sim} does after each op, and probes every down one. *)

val serve : t -> listeners:Unix.file_descr list -> unit
(** Run the event loop until a [shutdown] request. Dumps the flight
    recorder to [dir/flightrec.jsonl] on abnormal exit or [SIGUSR1].
    A closed client connection gives back its tenant slot
    ([fed_connections] counts the open ones). *)

val dump_recorder : t -> string
(** Dump the flight ring now; returns the path written. *)

val close : t -> unit
(** Close every upstream connection. *)
