(** pmpd: the durable allocation daemon.

    Wraps a {!Pmp_cluster.Cluster} in the {!Protocol}, a {!Wal} and
    periodic {!Snapshot}s, and serves it over TCP and/or Unix-domain
    sockets through {!Loop}. One value of {!t} is one {e core}: a
    cluster with its WAL, snapshots, recovery audit, metrics registry
    and flight recorder. With [domains = 1] the daemon is a single core
    running inline on the calling thread; with [domains = K > 1] it is
    K copies of the same core, one per OCaml domain, each over an
    aligned [N/K]-PE subtree — in the paper's tree machine every such
    subtree is itself a tree machine.

    {b Durability contract.} Every acknowledged mutation reaches the
    WAL before its response reaches the socket — structurally: the
    event loop runs the WAL's group {!commit} after handling each
    batch and before writing any response byte. Under the default
    [Group] policy the commit fsyncs, so acknowledgements imply
    stable storage at a per-batch (not per-record) fsync cost;
    [Always] forces every record individually, [Never] leaves
    durability to the OS.

    {b Recovery.} Snapshots hold the cluster's O(live) state, not its
    history (see {!Snapshot}), so recovery costs O(live tasks + WAL
    tail) however long the daemon ran. On startup, {!create}:
    - refuses a JSON snapshot left by pmp 1.7 or earlier, by name, and
      a JSON (pmp 1.14 or earlier) or version-1 (pmp 1.18 or earlier)
      WAL, naming the file and how to migrate, and a WAL whose damaged
      frame a verifying frame follows ({!Wal.scan});
    - loads the latest snapshot, verifies its checksum and imports it
      with {!Pmp_cluster.Cluster.import}, whose structural checks
      (sizes, alignment, placements inside the machine and of their
      task's size, copy-stack disjointness, distinct ids below the
      next id, balanced counters) refuse a state no execution could
      have reached;
    - replays the WAL tail, cross-checking every replayed submission
      against the id the original run acknowledged, while the
      structural conformance oracle — an observer resumed from the
      imported placements, built only when there is a tail — audits
      every allocator decision the tail causes;
    - checks the recovered state round-trips: exported, encoded,
      decoded and imported again it gives the same bytes, and the
      re-import, whose loads are recomputed from the placements,
      equals the running cluster under {!same_state}.
    What it no longer re-checks is the history before the snapshot:
    the oracle judges only the tail, and the snapshot's prefix is
    vouched for by its checksum and the structural checks. A recovery
    that fails any step refuses to start. The audit and the round trip
    run on recovered state only: a snapshot, or a non-empty WAL tail.
    A recovery that succeeds cuts a torn tail the WAL load dropped off
    [wal.log], with one line on stderr, before the log is appended to.
    A fresh directory (an empty [wal.log] included) recovers nothing,
    so its core builds one cluster and counts no recovery; the test
    suite round-trips every policy's empty state instead.

    {b Snapshots} are taken every [snapshot_every] mutations and on a
    [snapshot] request. One that fails is counted in
    [pmpd_snapshot_failures_total], leaves the WAL whole, and is tried
    again only after another [snapshot_every] mutations; stray
    [snapshot-*.tmp] files go at startup and with the next successful
    snapshot.

    {b One op path.} Submit, finish, query and stats each have one
    implementation. It applies the op on this core — cluster, WAL
    sequence number, WAL append, snapshot cadence and crash injection,
    stage timers — and writes the binary response payload into a
    scratch buffer the core reuses, through {!Protocol}'s
    zero-allocation writers. Every way in runs it: a binary frame,
    tagged with a request id or not, a JSON line, {!handle}, and a
    sharded core's call to a peer. {!Frame.read} finds each request in
    the connection's input buffer without allocating, and a binary one
    is read in place ({!Protocol.read_request}) and goes straight to its
    op, so the binary path allocates only what the cluster does; a
    tagged one's answer is wrapped in the echo of its id. A JSON line
    is decoded, run the same way, and its payload decoded back into the
    response it encodes, so the two encodings give the same answers and
    can interleave on one connection. A message {!Frame.read}
    refuses is one failed request, answered with the refusal text in
    the encoding it arrived in.

    {b Crash injection.} With [crash_after = Some k], {!Crash} is
    raised once the [k]-th mutation accepted by this process is
    covered by a WAL commit — after durability, before its response is
    delivered: the harshest acknowledged-but-unreported point. Tests
    and the CI smoke job use it to prove recovery equals uninterrupted
    execution.

    {b Sharding ([domains = K > 1]).} Each shard keeps a complete
    single-core state directory, [<dir>/shard-<s>], with its own WAL,
    snapshots and [flightrec.jsonl], recovered and audited exactly as
    an unsharded directory. The calling thread is the acceptor: it
    deals connections round-robin to the shards over bounded
    {!Pmp_util.Spsc} rings, and each shard serves its connections with
    its own {!Loop}.
    - {e Ids.} Shard [s]'s [i]-th task is globally [i * K + s]
      ({!Pmp_util.Sharding.global_id}), so [g mod K] routes any
      client-visible id back to its shard with no shared counter, and
      placements are shifted by the shard's leaf offset so clients
      see coordinates on the full machine. WAL records keep local ids.
      The largest admissible task is [N/K] PEs.
    - {e Placement.} The paper's greedy rule one level up, by
      {!Pmp_util.Sharding.pick}, the scan the federation router also
      places by: each core publishes, at each commit and before it
      answers a peer call that mutated it, its active size and the
      least max load of its windows at every order ([log (N/K) + 1]
      atomics). A submit of order [k] goes to the leftmost shard of
      least order-[k] summary — the shard holding the whole tree's
      leftmost least-loaded window, which that shard's own greedy
      allocator then picks — preferring shards with admission
      headroom, unless home ties that choice. The task is admitted in
      that shard's own id namespace and never moves. A lone connection
      (homed on shard 0) under [greedy] without a cap therefore places
      exactly as one unsharded core; concurrent connections read
      their peers' summaries stale by at most a batch.
    - {e Peer calls.} A finish or query of another shard's id, a
      submit placed on a peer and the [stats], [loads], [metrics] and
      [snapshot] fan-outs are synchronous calls over per-pair SPSC
      rings. While it waits for a response a shard keeps serving the
      calls addressed to it, so shards blocked on each other still
      progress.
    - {e Cross-shard durability.} A mutation that ran on another shard
      is acknowledged only once that shard's WAL commit covers it: a
      batch's {!commit} also waits for the published durable watermark
      of every shard the batch mutated, serving and committing peer
      calls meanwhile. No request costs an extra fsync.
    - {e Observability.} Each core registers the same instruments,
      labelled with its shard; a [metrics] request answers with their
      {!merge_parts} merge, which speaks the unsharded series names
      plus per-shard [pmpd_shard_*] series;
      [pmpd_shard_steals_total{dir="out"}] counts the submits a shard
      placed on a peer, [{dir="in"}] those it admitted for one.
      [pmpd_p99_load_ratio] divides each shard's max load by the whole
      machine's optimal load, from the active sizes the cores publish,
      so the merged maximum reads as the unsharded daemon's would.
      Latency profiling, the slow-request log and the flight recorder
      work per shard.
    - {e Crash injection} counts fresh mutations across all shards;
      the shard that trips raises {!Crash} after its covering commit,
      the others stop abandoning their buffers, and {!serve} re-raises
      it once every shard domain has left its black box behind.
    - {e Shard-count fence.} The number of [shard-*] directories is the
      shard count a state directory was written with (none: 1), and
      ids only route under that count, so {!create} refuses any other.
      A directory holding a [domains] file — the old single-WAL sharded
      layout — is refused too. *)

type config = {
  machine_size : int;
  policy : Pmp_cluster.Cluster.policy;
  admission_cap : float option;
  dir : string;  (** state directory: WAL + snapshots (created) *)
  fsync_policy : Wal.fsync_policy;  (** when WAL batches hit disk *)
  snapshot_every : int;  (** snapshot every k mutations; 0 = only on demand *)
  crash_after : int option;  (** crash-injection test mode *)
  latency_profile : bool;
      (** time every request and pipeline stage into the registry's
          log-bucket histograms. Off by default: the timestamps box
          floats, which would break the zero-allocation dispatch path *)
  slow_ms : float option;
      (** log requests slower than this many milliseconds to stderr
          (implies timing, like [latency_profile]) *)
  recorder_size : int;
      (** flight-recorder ring capacity in records; 0 disables it *)
  domains : int;
      (** shard count K: 1 (or less) serves inline; otherwise a power
          of two dividing [machine_size] *)
}

val default_config :
  machine_size:int -> policy:Pmp_cluster.Cluster.policy -> dir:string -> config
(** No admission cap, [fsync_policy = Group], [snapshot_every = 1024],
    no crash injection, no latency profiling or slow-request log,
    [recorder_size = 256], [domains = 1]. *)

exception Crash
(** Raised by the crash-injection trip; escapes {!serve} with all
    buffers abandoned. *)

type t

val create : config -> (t, string) result
(** Create the state directory if needed, recover from whatever
    snapshot and WAL it holds (an empty directory is a fresh cluster),
    verify the recovery, and open the WAL for appending. Sharded, this
    is done for every shard directory and the first core is returned;
    {!shards} lists them all. Refuses a shard count that does not
    match the directory (see the shard-count fence above). *)

val shards : t -> t array
(** Every core of [t]'s daemon in shard order; [[| t |]] unsharded. *)

val cluster : t -> Pmp_cluster.Cluster.t
(** This core's cluster (a shard's covers its [N/K]-PE subtree, with
    shard-local ids). *)

val seq : t -> int
(** Mutations this core applied since genesis (the durable sequence
    number of its WAL). *)

val recovered_ops : t -> int
(** WAL records this core's {!create} replayed (0 on a fresh start):
    the tail after the latest snapshot, so below [snapshot_every]
    while periodic snapshots succeed. *)

val same_state : Pmp_cluster.Cluster.t -> Pmp_cluster.Cluster.t -> (unit, string) result
(** Bit-for-bit behavioural equality of two clusters — stats, loads,
    queue, id counter, every live task's placement and the allocator's
    scalars (arrivals since the last repack, repack count, PRNG
    state): equal clusters answer every later request alike. This is
    the relation recovery is verified under (and the one the
    crash-recovery tests assert). *)

val registry : t -> Pmp_telemetry.Metrics.Registry.t
val metrics : t -> string
(** Prometheus dump of this core's registry: requests, mutations,
    batches, group sizes, connections, fsyncs, snapshots (and failed
    ones), recoveries and spans, the repack counters
    [pmpd_reallocations_total] and [pmpd_tasks_migrated_total] (the
    cluster's [reallocations] and [tasks_migrated], which a recovery
    restores), plus the SLO gauges — [pmpd_wal_lag] (records written
    but not yet known durable) and [pmpd_p99_load_ratio] (rolling p99
    of max-load over the whole machine's optimal load) — and, when
    timing is on, per-opcode [pmpd_request_seconds{op=...}] and
    per-stage [pmpd_stage_seconds{stage=...}] latency histograms. The
    rolling p99 gauge and the repack counters are brought up to date
    by this call. *)

val merge_max_names : string list
(** The series whose merged value is the largest shard value rather
    than the sum ([pmpd_max_load], [pmpd_p99_load_ratio]): the
    [~max_names] of every {!Pmp_telemetry.Metrics.merge_prometheus}
    over pmpd dumps, the mesh's and the federation router's. *)

val merge_parts :
  sizes:int array ->
  Protocol.request ->
  Protocol.response option array ->
  Protocol.response
(** The whole machine's answer to a [stats], [loads] or [metrics]
    request from its shards' answers in leaf order, where shard [s]
    has [sizes.(s)] PEs: the mesh's fan-out and the federation
    router's. Stats merge by {!Pmp_cluster.Cluster.merge_stats} over
    the summed size, loads concatenate, dumps merge by
    {!Pmp_telemetry.Metrics.merge_prometheus} with {!merge_max_names}.
    A part that is [None] or not the request's reply — a down shard —
    is skipped for stats and metrics and zero-filled for loads; stats
    with no part at all answer ["no shard up"].
    @raise Invalid_argument on any other request. *)

val recorder : t -> Recorder.t
(** The flight recorder: mutations replayed at recovery, then every
    request a connection sent (opcode, task size for a submit and 0
    for anything else, covering WAL seq, duration and timestamp when
    timing is on, success flag). *)

val flightrec_path : t -> string
(** Where dumps go: [flightrec.jsonl] in this core's directory. *)

val dump_recorder : t -> string
(** Dump the flight recorder to {!flightrec_path} now (truncating any
    previous dump); returns the path. {!serve} does this on SIGUSR1
    and on any abnormal exit — crash injection included — and
    {!create} does it when recovery fails, so a refused startup (a
    refused snapshot, an oracle violation, a WAL gap, a failed round
    trip) leaves its black box behind. *)

val handle : t -> Protocol.request -> Protocol.response * bool
(** Apply one request through the op path a connection's requests
    take, and decode the payload it wrote; the boolean is [true] when
    the server should stop ([Shutdown]). Not on the flight recorder.
    Accepted mutations are appended to the WAL (pending) before
    returning; call {!commit} to make them durable — the event loop
    does this once per batch.
    @raise Crash when crash injection trips under [fsync_policy =
    Always] (other policies trip in {!commit}).

    Sharded, a request that needs another shard is a synchronous call
    answered by that shard's event loop, so {!handle}, {!handle_conn}
    and {!commit} on a sharded core only make progress inside
    {!serve}. *)

val handle_conn :
  t ->
  Netbuf.t ->
  Netbuf.t ->
  budget:int ->
  [ `Handled of int | `Stop of int ]
(** The {!Loop} handler: drain up to [budget] complete requests from
    the in-buffer through {!Frame.read} (binary frames and JSON lines,
    told apart by their first byte), encoding responses into the
    out-buffer. Returns the number of requests consumed. *)

val commit : t -> unit
(** Group-commit the pending WAL batch (one write; fsync per policy),
    refresh the load gauges, and fire any armed crash injection. The
    event loop calls this after every batch, before responses are
    written; tests driving {!handle} directly must call it themselves
    to make mutations durable. Sharded, it then waits until every shard
    this batch mutated through a peer call has committed that mutation.
    @raise Crash when crash injection tripped in this batch. *)

val snapshot_now : t -> (string, string) result
(** Write a snapshot of this core covering everything it applied so far
    and rotate its WAL; returns the path written. An error is counted
    in [pmpd_snapshot_failures_total] and leaves the WAL untouched; the
    next periodic attempt comes [snapshot_every] mutations later. *)

val close : t -> unit
(** Flush and fsync every core's WAL, then close it (no implicit final
    snapshot). *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents. *)

val listen_unix : string -> Unix.file_descr
(** Bind and listen on a Unix-domain socket path, replacing a stale
    socket file if one exists. @raise Unix.Unix_error. *)

val listen_tcp : host:string -> port:int -> Unix.file_descr * int
(** Bind and listen on [host:port]; returns the bound port (useful
    with [port = 0]). @raise Unix.Unix_error. *)

val serve : t -> listeners:Unix.file_descr list -> unit
(** Run the event loop until a [shutdown] request, then {!close}.
    {!Crash} (and any other exception) escapes without closing the
    WAL cleanly — which is the point — but not before the flight
    recorder is dumped. SIGUSR1 requests a dump from a live server:
    the handler (installed race-free before the first [select]) only
    sets a flag; the loop writes the dump on its next tick or batch.
    Sharded, the calling thread accepts while one domain per shard
    serves; a shard that fails stops them all, and [serve] re-raises
    its exception after joining every domain. *)
