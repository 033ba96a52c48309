(** The shared service-benchmark driver.

    A deterministic churn workload (seeded {!Pmp_prng.Splitmix64};
    submissions of power-of-two sizes interleaved with finishes of
    live tasks), driven closed-loop through a {!Client} with a
    pipeline window, against a server spun up in its own domain over a
    Unix socket in a throwaway directory. The bench-regression
    service, multicore and federation probes and [pmp client bench]
    all measure through this module, so their numbers are
    comparable. *)

type gen
(** Deterministic request-stream state: an RNG plus the pool of live
    task ids (fed back from responses). *)

val make_gen : seed:int -> machine_size:int -> gen

val next_request : gen -> Protocol.request
(** Submit (size [2^k], at most a quarter machine) or finish a random
    live task, ~45% finishes while the pool is non-empty. *)

val note_response : gen -> Protocol.response -> unit
(** Feed a response back: placed/queued ids join the live pool. *)

type outcome = {
  requests : int;
  mutations : int;  (** submits + finishes sent *)
  errors : int;  (** [Error] responses (admission rejections etc.) *)
  elapsed : float;  (** seconds *)
  by_shard : (int * int) list;
      (** responses per serving shard (sorted by shard id), from the
          shard tag a federation router stamps on rid-tagged
          responses; empty against a plain server or with rids off *)
}

val ns_per_request : outcome -> float
val requests_per_sec : outcome -> float

val drive :
  Client.t ->
  gen ->
  requests:int ->
  window:int ->
  ?rids:bool ->
  unit ->
  (outcome, string) result
(** Closed loop: keep up to [window] requests in flight until
    [requests] responses are back. With [rids], every request carries
    its send index as a request id and the echo on each (strictly
    in-order) response is checked against it — an end-to-end test of
    the attribution plumbing on both encodings. *)

val percentile : Pmp_telemetry.Metrics.Histogram.t -> float -> float
(** [percentile h 99.0] = {!Pmp_telemetry.Metrics.Histogram.quantile}
    at rank [0.99]: geometric interpolation inside the covering
    bucket, in the histogram's own unit. [0] when empty. *)

val drive_parallel :
  connect:(unit -> (Client.t, string) result) ->
  conns:int ->
  requests:int ->
  window:int ->
  seed:int ->
  machine_size:int ->
  ?latency:Pmp_telemetry.Metrics.Histogram.t ->
  ?rids:bool ->
  unit ->
  (outcome, string) result
(** {!drive} over [conns] connections at once — the load shape that
    lets a sharded server actually exercise its shards in parallel,
    and, at [conns = 1], one connection. Each connection runs its own
    decorrelated generator ([seed + i * 7919]) through
    [requests / conns] requests; the first drives on the calling
    domain, each other one on a domain of its own. Outcomes sum;
    [elapsed] is the slowest connection's, so throughput derived from
    it is aggregate. With [latency], the first connection's round-trip
    times are observed in {e microseconds}. *)

val with_local_service :
  ?machine_size:int ->
  ?fsync_policy:Wal.fsync_policy ->
  ?wal_format:Wal.format ->
  ?latency_profile:bool ->
  ?recorder_size:int ->
  ?domains:int ->
  (string -> ('a, string) result) ->
  ('a, string) result
(** Run [f socket_path] against a greedy server with no periodic
    snapshots, serving in its own domain from a fresh temporary state
    directory; shut the server down, join the domain and delete the
    directory afterwards (also on exceptions). Defaults: machine 256,
    group commit, binary WAL, no latency profiling, the server's
    default flight-recorder size, [domains = 1]. *)

val bench :
  ?fsync_policy:Wal.fsync_policy ->
  ?wal_format:Wal.format ->
  ?proto:Client.proto ->
  ?latency_profile:bool ->
  ?recorder_size:int ->
  ?domains:int ->
  ?conns:int ->
  requests:int ->
  unit ->
  (outcome * string, string) result
(** {!with_local_service} at machine 256 + {!drive_parallel} of the
    seed-0xB00 churn over [conns] connections with a window of 32: the
    complete measurement for one (protocol, fsync policy, WAL format,
    domains, connections) point. Also returns the daemon's
    {!Pmp_telemetry.Metrics.prometheus} dump, read after the drive. *)

val words_per_request : ?requests:int -> unit -> (float, string) result
(** Minor words allocated per request by the binary fast path,
    measured in-process through {!Server.handle_conn} on read-only
    traffic (7/8 query, 1/8 stats) after warm-up — no sockets and no
    harness allocation, so ~0 means the dispatch really is
    allocation-free. *)
