module Cluster = Pmp_cluster.Cluster
module Metrics = Pmp_telemetry.Metrics
module Sharding = Pmp_util.Sharding
module Spsc = Pmp_util.Spsc

type config = {
  machine_size : int;
  policy : Cluster.policy;
  admission_cap : float option;
  dir : string;
  fsync_policy : Wal.fsync_policy;
  snapshot_every : int;
  crash_after : int option;
  latency_profile : bool;
  slow_ms : float option;
  recorder_size : int;
  domains : int;
}

let default_config ~machine_size ~policy ~dir =
  {
    machine_size;
    policy;
    admission_cap = None;
    dir;
    fsync_policy = Wal.Group;
    snapshot_every = 1024;
    crash_after = None;
    latency_profile = false;
    slow_ms = None;
    recorder_size = 256;
    domains = 1;
  }

exception Crash

type instruments = {
  c_requests : Metrics.Counter.t;
  c_mutations : Metrics.Counter.t;
  c_errors : Metrics.Counter.t;
  c_batches : Metrics.Counter.t;
  h_batch_size : Metrics.Histogram.t;
  h_group_size : Metrics.Histogram.t;
  c_connections : Metrics.Counter.t;
  c_fsyncs : Metrics.Counter.t;
  c_snapshots : Metrics.Counter.t;
  c_snapshot_failures : Metrics.Counter.t;
  c_recoveries : Metrics.Counter.t;
  c_recovered_ops : Metrics.Counter.t;
  c_reallocs : Metrics.Counter.t;  (** = [Cluster.stats]' [reallocations] *)
  c_migrated : Metrics.Counter.t;  (** = [Cluster.stats]' [tasks_migrated] *)
  s_recovery : Metrics.Span.t;
  s_snapshot : Metrics.Span.t;
  g_active : Metrics.Gauge.t;
  g_load : Metrics.Gauge.t;
  g_queued : Metrics.Gauge.t;
  c_slow : Metrics.Counter.t;
  g_wal_lag : Metrics.Gauge.t;
  g_p99_ratio : Metrics.Gauge.t;
  h_req : Metrics.Histogram.t array;  (** indexed by wire opcode; 0 = unknown *)
  h_stage_read : Metrics.Histogram.t;
  h_stage_decode : Metrics.Histogram.t;
  h_stage_apply : Metrics.Histogram.t;
  h_stage_wal : Metrics.Histogram.t;
  h_stage_fsync : Metrics.Histogram.t;
  h_stage_ack : Metrics.Histogram.t;
  g_shard_queue : Metrics.Gauge.t;  (** registered only when sharded *)
  c_steal_in : Metrics.Counter.t;
  c_steal_out : Metrics.Counter.t;
  g_shard_p99 : Metrics.Gauge.t;
}

(* Indexed by binary opcode; 0 covers undecodable requests. *)
let op_name =
  [|
    "unknown";
    "submit";
    "finish";
    "query";
    "stats";
    "loads";
    "metrics";
    "snapshot";
    "ping";
    "shutdown";
    "health";
    "tagged";
  |]

(* 1µs .. ~8s in doubling buckets: spans a cache-warm varint decode to
   a pathological fsync stall with 24 buckets. *)
let time_bounds = Metrics.log_bounds ~start:1e-6 ~ratio:2.0 ~count:24

(* A sharded daemon's cores register the same instruments in the same
   order, each labelled with its shard, so {!Metrics.merge_prometheus}
   can zip their dumps into the one-registry series a single core
   exposes. The [pmpd_shard_] series exist only when sharded and stay
   per shard in the merged dump. *)
let make_instruments reg ~shard =
  let l = match shard with None -> [] | Some s -> [ ("shard", string_of_int s) ] in
  let counter ?help name = Metrics.Registry.counter reg ~labels:l ?help name in
  let gauge ?help name = Metrics.Registry.gauge reg ~labels:l ?help name in
  let histogram ?(labels = []) ~help name bounds =
    Metrics.Registry.histogram reg ~labels:(labels @ l) ~help name bounds
  in
  let stage_hist ?(help = "") stage =
    histogram ~labels:[ ("stage", stage) ] ~help "pmpd_stage_seconds" time_bounds
  in
  let sharded make register =
    match shard with None -> make () | Some _ -> register ()
  in
  let g_shard_queue =
    sharded Metrics.Gauge.make (fun () ->
        gauge ~help:"Admission-queue depth of this shard" "pmpd_shard_queue_depth")
  in
  let c_steal_in =
    sharded Metrics.Counter.make (fun () ->
        Metrics.Registry.counter reg
          ~labels:(l @ [ ("dir", "in") ])
          ~help:"Submits placed on a peer shard" "pmpd_shard_steals_total")
  in
  let c_steal_out =
    sharded Metrics.Counter.make (fun () ->
        Metrics.Registry.counter reg
          ~labels:(l @ [ ("dir", "out") ])
          "pmpd_shard_steals_total")
  in
  let g_shard_p99 =
    sharded Metrics.Gauge.make (fun () ->
        gauge
          ~help:
            "Rolling p99 of this shard's max load over the whole machine's \
             optimal load"
          "pmpd_shard_p99_load_ratio")
  in
  {
    c_requests = counter ~help:"Requests handled" "pmpd_requests_total";
    c_mutations =
      counter ~help:"Accepted mutations (WAL records)" "pmpd_mutations_total";
    c_errors = counter ~help:"Requests answered with an error" "pmpd_errors_total";
    c_batches = counter ~help:"Select-round request batches" "pmpd_batches_total";
    h_batch_size =
      histogram ~help:"Requests per batch" "pmpd_batch_size"
        (Metrics.log_bounds ~start:1.0 ~ratio:2.0 ~count:12);
    h_group_size =
      histogram ~help:"WAL records per group commit" "pmpd_wal_group_size"
        (Metrics.log_bounds ~start:1.0 ~ratio:2.0 ~count:12);
    c_connections = counter ~help:"Connections accepted" "pmpd_connections_total";
    c_fsyncs = counter ~help:"WAL fsyncs" "pmpd_fsync_total";
    c_snapshots = counter ~help:"Snapshots written" "pmpd_snapshots_total";
    c_snapshot_failures =
      counter ~help:"Snapshot writes that failed" "pmpd_snapshot_failures_total";
    c_recoveries =
      counter ~help:"Startups that replayed durable state" "pmpd_recoveries_total";
    c_recovered_ops =
      counter ~help:"WAL records replayed at startup" "pmpd_recovered_ops_total";
    c_reallocs =
      counter ~help:"Repacks the allocator has run" "pmpd_reallocations_total";
    c_migrated =
      counter ~help:"Tasks moved by repacks" "pmpd_tasks_migrated_total";
    s_recovery =
      Metrics.Registry.span reg ~labels:l ~help:"Startup recovery time"
        "pmpd_recovery_seconds";
    s_snapshot =
      Metrics.Registry.span reg ~labels:l ~help:"Snapshot write time"
        "pmpd_snapshot_seconds";
    g_active = gauge ~help:"Active tasks" "pmpd_active_tasks";
    g_load = gauge ~help:"Current max PE load" "pmpd_max_load";
    g_queued = gauge ~help:"Queued tasks" "pmpd_queued_tasks";
    c_slow =
      counter ~help:"Requests over the slow-request threshold"
        "pmpd_slow_requests_total";
    g_wal_lag =
      gauge ~help:"WAL records written but not yet known durable" "pmpd_wal_lag";
    g_p99_ratio =
      gauge ~help:"Rolling-window p99 of max-load over optimal load"
        "pmpd_p99_load_ratio";
    h_req =
      Array.init (Array.length op_name) (fun i ->
          histogram
            ~labels:[ ("op", op_name.(i)) ]
            ~help:(if i = 0 then "Server-side request latency" else "")
            "pmpd_request_seconds" time_bounds);
    h_stage_read =
      stage_hist ~help:"Server-side latency by pipeline stage" "read";
    h_stage_decode = stage_hist "decode";
    h_stage_apply = stage_hist "apply";
    h_stage_wal = stage_hist "wal_append";
    h_stage_fsync = stage_hist "fsync";
    h_stage_ack = stage_hist "ack";
    g_shard_queue;
    c_steal_in;
    c_steal_out;
    g_shard_p99;
  }

(* Series where the global value is the max of the shard values, not
   the sum (gauge [_max] high-water lines are maxed by suffix): the
   mesh's merge and the federation router's. *)
let merge_max_names = [ "pmpd_max_load"; "pmpd_p99_load_ratio" ]

(* Shard [s] owns the leaves after its predecessors' — the mesh's
   [[s*N/K, (s+1)*N/K)] — so the loads concatenate in shard order. *)
let merge_parts ~sizes (req : Protocol.request) parts =
  let each f = List.filter_map (fun p -> Option.bind p f) (Array.to_list parts) in
  match req with
  | Protocol.Stats -> (
      match each (function Protocol.Stats_reply s -> Some s | _ -> None) with
      | [] -> Protocol.Error "no shard up"
      | stats ->
          Protocol.Stats_reply
            (Cluster.merge_stats
               ~machine_size:(Array.fold_left ( + ) 0 sizes)
               stats))
  | Protocol.Loads ->
      Protocol.Loads_reply
        (Array.concat
           (List.mapi
              (fun s -> function
                | Some (Protocol.Loads_reply l) when Array.length l = sizes.(s) -> l
                | _ -> Array.make sizes.(s) 0)
              (Array.to_list parts)))
  | Protocol.Metrics ->
      Protocol.Metrics_reply
        (Metrics.merge_prometheus ~max_names:merge_max_names
           (each (function Protocol.Metrics_reply d -> Some d | _ -> None)))
  | _ -> invalid_arg "Server.merge_parts: not a stats, loads or metrics request"

(* A peer's answer to one call: the response payload its op wrote,
   whether the op succeeded, and the callee's durability ticket — its
   [seq] after the mutation the call ran, 0 when it ran none. *)
type peer_reply = { payload : string; ok : bool; ticket : int }

(* A call asks the callee's own core to run a request ({!local}): ids
   are global, and a submit is one the caller placed there. Calls are
   synchronous — a shard has at most one call outstanding and owes at
   most one response per peer — so a ring per ordered pair holds at
   most two messages and never fills. *)
type peer_msg = Preq of int * Protocol.request | Presp of peer_reply

type t = {
  config : config;
      (** this core's: when sharded, [machine_size] is [N/K] and [dir]
          the shard's own directory *)
  cluster : Cluster.t;
  wal : Wal.t;
  reg : Metrics.Registry.t;
  ins : instruments;
  scratch : Buffer.t;
      (** the response payload of the request being answered:
          [Buffer.clear] keeps the storage, so it is written without
          allocating *)
  part : Buffer.t;
      (** this core's part of a peer call or of its own fan-out; apart
          from [scratch], since a shard serves its peers while a
          request of its own waits on one *)
  slot : Protocol.slot;  (** the binary request being read, in place *)
  reader : Frame.reader;  (** where the last request read sits *)
  mutable seq : int;  (** durable mutation count since genesis *)
  mutable snap_tried : int;
      (** seq at the last periodic snapshot attempt, failed or not *)
  mutable fresh_mutations : int;  (** accepted by this process *)
  mutable crash_armed : bool;
      (** crash injection tripped; fires after the covering commit *)
  recovered_ops : int;
  recorder : Recorder.t;
  timed : bool;  (** latency profiling or slow-request logging is on *)
  mutable req_t0 : float;
      (** arrival time of the request being handled, set only when
          [timed] — a field rather than an argument so the untimed
          fast path never boxes a float at a call boundary *)
  slow_s : float;  (** slow-request threshold in seconds; [infinity] off *)
  started : float;
  wal_base : int;  (** seq already durable when this process opened the WAL *)
  usr1 : bool Atomic.t;  (** a SIGUSR1 dump is pending *)
  ratios : Metrics.Ratio_window.t;  (** behind [pmpd_p99_load_ratio] *)
  shard : int;  (** this core's shard; 0 unsharded *)
  plan : Sharding.plan;  (** the subtree plan over the K cores; K = 1 unsharded *)
  leaf_off : int;  (** first global leaf of this core's subtree *)
  mesh : mesh option;  (** the other cores; [None] unsharded *)
  mutable published : int;  (** last [seq] published as durable *)
  need : int array;
      (** per shard: the durability ticket this batch's acks wait for *)
  owed : bool array;
      (** per shard: ran a mutation for it since the last publish *)
}

(* What the K cores of a sharded daemon share. Rings are SPSC by
   construction; the rest is Atomics and self-pipes, which are only
   wake-up hints: every consumer drains its rings before it sleeps, so
   a lost or spurious byte costs a round, not correctness. Pipe [s]
   wakes shard [s], pipe [K] the acceptor. *)
and mesh = {
  mutable cores : t array;
  acc : Unix.file_descr Spsc.t array;  (** acceptor -> shard *)
  peer : peer_msg Spsc.t array array;  (** [peer.(src).(dst)] *)
  durable : int Atomic.t array;
      (** per shard: [seq] covered by its last WAL commit *)
  active_pub : int Atomic.t array;  (** published active PE-size *)
  summary : int Atomic.t array array;
      (** [summary.(s).(o)]: the least max load of shard [s]'s order-[o]
          windows, as it last published, for [o] in [0 .. log (N/K)] *)
  fresh : int Atomic.t;  (** fresh mutations, process-wide (crash injection) *)
  stop : bool Atomic.t;
  fail : exn option Atomic.t;  (** first exception that ended a shard *)
  finished : int Atomic.t;  (** shards whose event loop has returned *)
  mutable pipes_r : Unix.file_descr array;  (** opened by {!serve} *)
  mutable pipes_w : Unix.file_descr array;
}

let cluster t = t.cluster
let seq t = t.seq
let recovered_ops t = t.recovered_ops
let registry t = t.reg
let recorder t = t.recorder
let shards t = match t.mesh with None -> [| t |] | Some m -> m.cores

(* K, the core count: 1 unsharded *)
let k t = t.plan.Sharding.shards
let flightrec_path t = Filename.concat t.config.dir "flightrec.jsonl"

let dump_recorder t =
  let path = flightrec_path t in
  Recorder.dump t.recorder path;
  path

let wal_lag t =
  let last = Wal.last_seq t.wal in
  if last = min_int then 0
  else max 0 (last - max (Wal.durable_seq t.wal) t.wal_base)

(* This core's own dump; a sharded daemon answers [metrics] with the
   merge of every core's. The repack counters copy the cluster's own
   counts, which a recovery restores, so they are brought up to date
   here rather than counted. *)
let metrics t =
  let s = Cluster.stats t.cluster in
  let sync c n = Metrics.Counter.inc c (n - Metrics.Counter.value c) in
  sync t.ins.c_reallocs s.Cluster.reallocations;
  sync t.ins.c_migrated s.Cluster.tasks_migrated;
  let p99 = Metrics.Ratio_window.p99 t.ratios in
  Metrics.Gauge.set t.ins.g_p99_ratio p99;
  Metrics.Gauge.set t.ins.g_shard_p99 p99;
  Metrics.prometheus t.reg

(* ------------------------------------------------------------------ *)
(* recovery                                                            *)

let ( let* ) = Result.bind

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (EEXIST, _, _) -> ()
  end

(* Bit-for-bit behavioural equality of two clusters: stats, loads and
   the exported state — counters, queue, every live placement and the
   allocator's scalars. *)
let same_state a b =
  if Cluster.stats a <> Cluster.stats b then Error "stats differ"
  else if Cluster.leaf_loads a <> Cluster.leaf_loads b then Error "loads differ"
  else if Cluster.export a <> Cluster.export b then
    Error "queues, placements or allocator scalars differ"
  else Ok ()

(* The recovered state must prove itself beyond the import's structural
   checks: exported, encoded, decoded and imported again it gives the
   same bytes, and the re-import — whose loads are recomputed from the
   placements — equals the running cluster. *)
let verify_cluster ~seq ~admission_cap cluster =
  let bytes = Snapshot.encode (Snapshot.of_cluster ~seq ~admission_cap cluster) in
  let* again = Result.bind (Snapshot.decode bytes) Snapshot.restore in
  if Snapshot.encode (Snapshot.of_cluster ~seq ~admission_cap again) <> bytes then
    Error "recovered state does not survive an export/import round trip"
  else
    Result.map_error
      (fun e -> "recovered state diverges from its re-import: " ^ e)
      (same_state cluster again)

let apply_op cluster (op : Wal.op) =
  match op with
  | Wal.Submit { id; size } -> (
      match Cluster.submit cluster ~size with
      | Ok (Cluster.Placed (id', _)) | Ok (Cluster.Queued id') ->
          if id' = id then Ok ()
          else
            Error
              (Printf.sprintf "wal submit expected id %d, cluster assigned %d"
                 id id')
      | Error e -> Error (Printf.sprintf "wal submit of size %d rejected: %s" size e))
  | Wal.Finish { id } -> (
      match Cluster.finish cluster id with
      | Ok () -> Ok ()
      | Error e -> Error (Printf.sprintf "wal finish of task %d rejected: %s" id e))

let recover config recorder =
  let* () =
    match Snapshot.legacy ~dir:config.dir with
    | None -> Ok ()
    | Some path ->
        Error
          (Printf.sprintf
             "%s is a JSON snapshot from pmp 1.7 or earlier, which held the \
              event history; this version keeps only the live state and \
              cannot recover it; serve a fresh --dir"
             path)
  in
  let* snap =
    match Snapshot.latest ~dir:config.dir with
    | None -> Ok None
    | Some (path, _) -> Result.map Option.some (Snapshot.load path)
  in
  let* cluster, snap_seq =
    match snap with
    | None ->
        let* c =
          Cluster.create ~machine_size:config.machine_size ~policy:config.policy
            ~admission_cap:config.admission_cap ()
        in
        Ok (c, 0)
    | Some s ->
        if s.Snapshot.machine_size <> config.machine_size then
          Error "snapshot machine size does not match the configuration"
        else if
          Snapshot.policy_to_string s.Snapshot.policy
          <> Snapshot.policy_to_string config.policy
        then Error "snapshot policy does not match the configuration"
        else if s.Snapshot.admission_cap <> config.admission_cap then
          Error "snapshot admission cap does not match the configuration"
        else
          let* c =
            Result.map_error (fun e -> "snapshot refused: " ^ e)
              (Snapshot.restore s)
          in
          Ok (c, s.Snapshot.seq)
  in
  let wal_path = Filename.concat config.dir "wal.log" in
  let* wal = Wal.scan wal_path in
  let tail = List.filter (fun (seq, _) -> seq > snap_seq) wal.Wal.records in
  (* Recovered state is a snapshot or a WAL tail. Without either — a
     fresh directory, or the empty wal.log an earlier fresh run left —
     the cluster is the one [Cluster.create] just built, so there is
     nothing to audit or round-trip (the suite round-trips every
     policy's empty state). *)
  let recovered = snap <> None || tail <> [] in
  (* the imported state passed its structural checks; what the WAL
     tail does to it is audited as it is replayed. An observer that
     sees no event checks nothing, so an empty tail builds none. *)
  if tail <> [] then
    Cluster.start_audit cluster Pmp_oracle.Oracle.structural_only;
  let* last_seq =
    List.fold_left
      (fun acc (seq, op) ->
        let* prev = acc in
        if seq <> prev + 1 then
          Error (Printf.sprintf "wal gap: expected seq %d, found %d" (prev + 1) seq)
        else begin
          let opcode, size =
            match op with
            | Wal.Submit { size; _ } -> (Protocol.opcode (Protocol.Submit size), size)
            | Wal.Finish { id } -> (Protocol.opcode (Protocol.Finish id), 0)
          in
          let r = apply_op cluster op in
          Recorder.record recorder ~kind:Recorder.kind_replay ~op:opcode
            ~tenant:0 ~size ~seq ~dur_ns:0 ~ts_us:0 ~ok:(Result.is_ok r);
          let* () = r in
          Ok seq
        end)
      (Ok snap_seq) tail
  in
  let* () =
    Result.map_error
      (Format.asprintf "recovered WAL tail fails the oracle: %a"
         Pmp_oracle.Oracle.pp_violation)
      (Cluster.finish_audit cluster)
  in
  let* () =
    if recovered then
      verify_cluster ~seq:last_seq ~admission_cap:config.admission_cap cluster
    else Ok ()
  in
  (* the WAL is appended to next, and frames written after a torn tail
     would make the next recovery refuse it as damage *)
  let* () =
    let cut = wal.Wal.length - wal.Wal.verified in
    if cut = 0 then Ok ()
    else
      match Unix.truncate wal_path wal.Wal.verified with
      | () ->
          Printf.eprintf "pmpd: %s: cut a torn tail of %d bytes\n%!" wal_path cut;
          Ok ()
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "%s: cannot cut its torn tail: %s" wal_path
               (Unix.error_message e))
  in
  Ok (cluster, last_seq, snap_seq, List.length tail, recovered)

(* Publish this core's load summaries, which the other cores place by:
   its active size and, at every order, the least max load of its
   windows. *)
let publish_load t m ~active_size =
  Atomic.set m.active_pub.(t.shard) active_size;
  Array.iteri
    (fun order a -> Atomic.set a (Cluster.window_load t.cluster ~order))
    m.summary.(t.shard)

let update_gauges t =
  let s = Cluster.stats t.cluster in
  Metrics.Gauge.set t.ins.g_active (float_of_int s.Cluster.active_now);
  Metrics.Gauge.set t.ins.g_load (float_of_int s.Cluster.max_load);
  Metrics.Gauge.set t.ins.g_queued (float_of_int s.Cluster.queued_now);
  Metrics.Gauge.set t.ins.g_wal_lag (float_of_int (wal_lag t));
  (* The ratio is over the whole machine's L*: sharded, from the active
     sizes the cores publish, stale by at most a batch, so load piled
     onto one shard reads as high as it is. *)
  let optimal =
    match t.mesh with
    | None -> s.Cluster.optimal_now
    | Some m ->
        Metrics.Gauge.set t.ins.g_shard_queue (float_of_int s.Cluster.queued_now);
        publish_load t m ~active_size:s.Cluster.active_size;
        Pmp_util.Pow2.ceil_div
          (Array.fold_left (fun n a -> n + Atomic.get a) 0 m.active_pub)
          t.plan.Sharding.machine_size
  in
  Metrics.Ratio_window.push t.ratios ~max_load:s.Cluster.max_load ~optimal

(* One core over [config.dir]: recover whatever snapshot and WAL it
   holds, audit the result, open the WAL for appending. *)
let create_core config ~shard ~plan ~mesh =
  (* The recorder exists before recovery so the replayed WAL tail is
     on record: if recovery fails — including an oracle violation —
     the dump shows exactly which records were applied. *)
  let recorder = Recorder.create config.recorder_size in
  let t0 = Unix.gettimeofday () in
  match recover config recorder with
  | Error e ->
      Recorder.record recorder ~kind:Recorder.kind_event ~op:0 ~tenant:0
        ~size:0 ~seq:0 ~dur_ns:0 ~ts_us:0 ~ok:false;
      Recorder.dump recorder (Filename.concat config.dir "flightrec.jsonl");
      Error e
  | Ok (cluster, seq, snap_seq, replayed, recovered) ->
      (* what a crash left behind: a [.tmp] from an interrupted save,
         a snapshot superseded before its prune ran *)
      Snapshot.prune ~dir:config.dir ~keep:snap_seq;
      let reg = Metrics.Registry.create () in
      let ins = make_instruments reg ~shard:(Option.map (fun _ -> shard) mesh) in
      if recovered then begin
        Metrics.Counter.incr ins.c_recoveries;
        Metrics.Counter.inc ins.c_recovered_ops replayed;
        Metrics.Span.add ins.s_recovery (Unix.gettimeofday () -. t0)
      end;
      let wal = Wal.open_log (Filename.concat config.dir "wal.log") in
      let t =
        {
          config;
          cluster;
          wal;
          reg;
          ins;
          scratch = Buffer.create 256;
          part = Buffer.create 256;
          slot = Protocol.slot ();
          reader = Frame.reader ();
          seq;
          snap_tried = snap_seq;
          fresh_mutations = 0;
          crash_armed = false;
          recovered_ops = replayed;
          recorder;
          timed = config.latency_profile || config.slow_ms <> None;
          req_t0 = 0.0;
          slow_s =
            (match config.slow_ms with
            | Some ms -> ms /. 1000.0
            | None -> infinity);
          started = Unix.gettimeofday ();
          wal_base = seq;
          usr1 = Atomic.make false;
          ratios = Metrics.Ratio_window.make ();
          shard;
          plan;
          leaf_off = Sharding.leaf_offset plan shard;
          mesh;
          published = seq;
          need = Array.make plan.Sharding.shards 0;
          owed = Array.make plan.Sharding.shards false;
        }
      in
      (match mesh with
      | Some m -> Atomic.set m.durable.(shard) seq
      | None -> ());
      update_gauges t;
      Ok t

(* ------------------------------------------------------------------ *)
(* state-directory layout                                              *)

(* Unsharded, the state directory holds [wal.log] and the snapshots
   itself; sharded K ways it holds [shard-0] .. [shard-(K-1)], one
   complete single-core state directory per shard. The number of
   shard directories is therefore the shard count the directory was
   written with, and ids only route back to their shard under that
   same count. *)
let shard_dir dir s = Filename.concat dir (Printf.sprintf "shard-%d" s)

let check_layout dir ~k =
  let marker = Filename.concat dir "domains" in
  let shard_dirs =
    match Sys.readdir dir with
    | entries ->
        Array.fold_left
          (fun n e ->
            if
              String.starts_with ~prefix:"shard-" e
              && Sys.is_directory (Filename.concat dir e)
            then n + 1
            else n)
          0 entries
    | exception Sys_error _ -> 0
  in
  let history () =
    Snapshot.latest ~dir <> None
    || Snapshot.legacy ~dir <> None
    ||
    match Unix.stat (Filename.concat dir "wal.log") with
    | st -> st.Unix.st_size > 0
    | exception Unix.Unix_error _ -> false
  in
  if Sys.file_exists marker then
    Error
      (Printf.sprintf
         "%s marks the old single-WAL sharded layout, which this version \
          cannot recover; serve a fresh --dir"
         marker)
  else if shard_dirs > 0 && shard_dirs <> k then
    Error
      (Printf.sprintf
         "state directory %s was written with --domains=%d; restart with \
          --domains=%d (ids route to shards by the shard count)"
         dir shard_dirs shard_dirs)
  else if shard_dirs = 0 && k > 1 && history () then
    Error
      (Printf.sprintf
         "state directory %s was written with --domains=1; restart with \
          --domains=1 (ids route to shards by the shard count)"
         dir)
  else Ok ()

let create config =
  let k = max 1 config.domains in
  if config.snapshot_every < 0 then Error "snapshot_every must be non-negative"
  else if config.recorder_size < 0 then
    Error "recorder_size must be non-negative"
  else begin
    mkdir_p config.dir;
    let* () = check_layout config.dir ~k in
    let* plan = Sharding.plan ~machine_size:config.machine_size ~shards:k in
    if k = 1 then create_core config ~shard:0 ~plan ~mesh:None
    else
      let m =
        {
          cores = [||];
          acc = Array.init k (fun _ -> Spsc.create 1024);
          peer = Array.init k (fun _ -> Array.init k (fun _ -> Spsc.create 8));
          durable = Array.init k (fun _ -> Atomic.make 0);
          active_pub = Array.init k (fun _ -> Atomic.make 0);
          summary =
            Array.init k (fun _ ->
                Array.init
                  (Pmp_util.Pow2.ilog2 plan.Sharding.shard_size + 1)
                  (fun _ -> Atomic.make 0));
          fresh = Atomic.make 0;
          stop = Atomic.make false;
          fail = Atomic.make None;
          finished = Atomic.make 0;
          pipes_r = [||];
          pipes_w = [||];
        }
      in
      (* every shard directory first, so the count stays K whatever
         fails below *)
      let dirs = Array.init k (shard_dir config.dir) in
      Array.iter mkdir_p dirs;
      let rec build acc s =
        if s = k then Ok (Array.of_list (List.rev acc))
        else begin
          let shard_config =
            { config with machine_size = plan.Sharding.shard_size; dir = dirs.(s) }
          in
          match create_core shard_config ~shard:s ~plan ~mesh:(Some m) with
          | Ok c -> build (c :: acc) (s + 1)
          | Error e ->
              List.iter (fun c -> Wal.close c.wal) acc;
              Error (Printf.sprintf "shard %d: %s" s e)
        end
      in
      let* cores = build [] 0 in
      m.cores <- cores;
      Ok cores.(0)
  end

(* ------------------------------------------------------------------ *)
(* the shard mesh: wake-ups, rings, synchronous peer calls             *)

exception Aborted
(* a sibling shard failed (or crashed): stop, abandoning all buffers *)

let wake m i =
  match Unix.single_write m.pipes_w.(i) (Bytes.make 1 '!') 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _)
    -> ()

let wake_all m = Array.iteri (fun i _ -> wake m i) m.pipes_w

let note_fail m e =
  ignore (Atomic.compare_and_set m.fail None (Some e));
  Atomic.set m.stop true;
  wake_all m

let check_fail m = if Option.is_some (Atomic.get m.fail) then raise Aborted

let drain_pipe fd =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read fd buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  go ()

(* Producer side of a ring: wake the consumer on the empty->nonempty
   transition, which suffices because every consumer drains its rings
   fully before sleeping. Only the acceptor's rings can fill. *)
let push m ring msg ~dest =
  let rec go n =
    match Spsc.push ring msg with
    | `Pushed `Was_empty -> wake m dest
    | `Pushed `Was_nonempty -> ()
    | `Full ->
        check_fail m;
        if n land 1023 = 0 then wake m dest;
        Domain.cpu_relax ();
        go (n + 1)
  in
  go 1

let rec pop_all ring f =
  match Spsc.pop ring with
  | Some x ->
      f x;
      pop_all ring f
  | None -> ()

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Spin briefly, then sleep on this shard's pipe for at most 1 ms. *)
let pause t m spins =
  if spins < 200 then begin
    Domain.cpu_relax ();
    spins + 1
  end
  else begin
    let pipe = m.pipes_r.(t.shard) in
    (match Unix.select [ pipe ] [] [] 0.001 with
    | [ _ ], _, _ -> drain_pipe pipe
    | _ -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    0
  end

(* ------------------------------------------------------------------ *)
(* committing                                                          *)

(* A failed attempt leaves the WAL whole, so nothing is lost; the next
   periodic attempt waits another [snapshot_every] mutations rather
   than retrying on every one. *)
let snapshot_now t =
  let t0 = Unix.gettimeofday () in
  t.snap_tried <- t.seq;
  let failed e =
    Metrics.Counter.incr t.ins.c_snapshot_failures;
    Printf.eprintf "pmpd: snapshot at seq %d failed: %s\n%!" t.seq e;
    Error e
  in
  match
    Snapshot.save ~dir:t.config.dir
      (Snapshot.of_cluster ~seq:t.seq ~admission_cap:t.config.admission_cap
         t.cluster)
  with
  | path ->
      (* [save] returned: the snapshot and its directory entry are
         durable, so the WAL it covers and the snapshots it supersedes
         can go *)
      Wal.reset t.wal;
      Snapshot.prune ~dir:t.config.dir ~keep:t.seq;
      Metrics.Counter.incr t.ins.c_snapshots;
      Metrics.Span.add t.ins.s_snapshot (Unix.gettimeofday () -. t0);
      Ok path
  | exception Sys_error e -> failed e
  | exception Unix.Unix_error (err, fn, _) ->
      failed (fn ^ ": " ^ Unix.error_message err)

let observe_group t =
  let n = Wal.pending_records t.wal in
  if n > 0 then
    Metrics.Histogram.observe t.ins.h_group_size (float_of_int n)

(* Bookkeeping after an accepted mutation (the WAL record is already
   appended, pending). Under [Always] the record is forced to disk
   here, before the response can even be queued; under the batched
   policies it stays pending until {!commit}, and crash injection only
   arms — the trip fires after the covering commit, so the crash always
   lands at the harshest point: acknowledged, durable, unreported. A
   sharded daemon counts fresh mutations across all its shards. *)
let after_mutation t =
  t.fresh_mutations <- t.fresh_mutations + 1;
  Metrics.Counter.incr t.ins.c_mutations;
  if
    t.config.snapshot_every > 0
    && t.seq - t.snap_tried >= t.config.snapshot_every
  then ignore (snapshot_now t);
  let crash_due =
    match t.config.crash_after with
    | None -> false
    | Some k -> (
        match t.mesh with
        | None -> t.fresh_mutations >= k
        | Some m -> Atomic.fetch_and_add m.fresh 1 + 1 >= k)
  in
  match t.config.fsync_policy with
  | Wal.Always ->
      observe_group t;
      if Wal.commit t.wal ~fsync:true then Metrics.Counter.incr t.ins.c_fsyncs;
      if crash_due then raise Crash
  | Wal.Group | Wal.Never -> if crash_due then t.crash_armed <- true

(* This core's group commit: one write (and per policy one fsync)
   covering every mutation appended since the last one. *)
let commit_wal t =
  observe_group t;
  let fsync =
    match t.config.fsync_policy with
    | Wal.Always | Wal.Group -> true
    | Wal.Never -> false
  in
  if t.timed then begin
    let t0 = Unix.gettimeofday () in
    if Wal.commit t.wal ~fsync then begin
      Metrics.Counter.incr t.ins.c_fsyncs;
      Metrics.Histogram.observe t.ins.h_stage_fsync
        (Unix.gettimeofday () -. t0)
    end
  end
  else if Wal.commit t.wal ~fsync then Metrics.Counter.incr t.ins.c_fsyncs;
  update_gauges t;
  if t.crash_armed then raise Crash

(* Publish this core's durable watermark (everything up to [seq] is
   committed) and wake the shards whose acks may be waiting on it. *)
let publish t m =
  if t.published <> t.seq then begin
    t.published <- t.seq;
    Atomic.set m.durable.(t.shard) t.seq;
    Array.iteri
      (fun d owed ->
        if owed then begin
          t.owed.(d) <- false;
          wake m d
        end)
      t.owed
  end

(* Commit whatever peer calls appended since the last commit. *)
let settle t m =
  if t.published <> t.seq then begin
    commit_wal t;
    publish t m
  end

(* ------------------------------------------------------------------ *)
(* the ops                                                             *)

(* Submit, finish, query and stats each have one implementation here.
   It applies the op on this core — cluster, [seq], WAL append,
   {!after_mutation}, stage timers — and appends the binary response
   payload to [buf] through Protocol's writers, building no request,
   response or string on the way; the result is whether the op
   succeeded. A request reaches them through {!run} or straight from
   {!frame_request}, and a peer's call through {!local}. Ids and
   leaves translate by the shard's offsets, the identity when
   unsharded. *)

let now t = if t.timed then Unix.gettimeofday () else 0.0

(* With timing on: decode ran from the request's arrival to [td], apply
   from [td] to [ta], and a mutation's WAL append from [ta] to now. *)
let observe_stages t td ta ~wal =
  Metrics.Histogram.observe t.ins.h_stage_decode (td -. t.req_t0);
  Metrics.Histogram.observe t.ins.h_stage_apply (ta -. td);
  if wal then
    Metrics.Histogram.observe t.ins.h_stage_wal (Unix.gettimeofday () -. ta)

(* [add] a task's placement with its leaves on the full machine *)
let add_at t add buf gid (p : Pmp_core.Placement.t) =
  let sub = p.Pmp_core.Placement.sub in
  add buf gid
    ~base:(Pmp_machine.Submachine.first_leaf sub + t.leaf_off)
    ~size:(Pmp_machine.Submachine.size sub)
    ~copy:p.Pmp_core.Placement.copy

(* Admit a task on this core, whoever asked: the id comes out of this
   shard's namespace ([local * K + shard]), so a task placed here from
   a peer routes here for every later finish and query. *)
let submit_here t buf size =
  let td = now t in
  match Cluster.submit t.cluster ~size with
  | Error e ->
      Protocol.add_error buf e;
      false
  | Ok sub ->
      let ta = now t in
      let lid = match sub with Cluster.Placed (i, _) | Cluster.Queued i -> i in
      t.seq <- t.seq + 1;
      Wal.append_submit t.wal ~seq:t.seq ~id:lid ~size;
      after_mutation t;
      if t.timed then observe_stages t td ta ~wal:true;
      let gid = Sharding.global_id ~shards:(k t) ~shard:t.shard lid in
      (match sub with
      | Cluster.Placed (_, p) -> add_at t Protocol.add_placed buf gid p
      | Cluster.Queued _ -> Protocol.add_queued buf gid);
      true

let finish_here t buf gid =
  let lid = Sharding.local_id ~shards:(k t) gid in
  let td = now t in
  match Cluster.finish t.cluster lid with
  | Error e ->
      Protocol.add_error buf e;
      false
  | Ok () ->
      let ta = now t in
      t.seq <- t.seq + 1;
      Wal.append_finish t.wal ~seq:t.seq ~id:lid;
      after_mutation t;
      if t.timed then observe_stages t td ta ~wal:true;
      Protocol.add_finished buf;
      true

let query_here t buf gid =
  let lid = Sharding.local_id ~shards:(k t) gid in
  let td = now t in
  (match Cluster.placement t.cluster lid with
  | Some p -> add_at t Protocol.add_active buf gid p
  | None ->
      if Cluster.is_queued t.cluster lid then Protocol.add_queued_task buf gid
      else Protocol.add_unknown buf gid);
  if t.timed then observe_stages t td (Unix.gettimeofday ()) ~wal:false;
  true

let stats_here t buf =
  let td = now t in
  Protocol.add_stats buf (Cluster.stats t.cluster);
  if t.timed then observe_stages t td (Unix.gettimeofday ()) ~wal:false;
  true

(* The answers with no writer of their own, encoded whole. *)
let reply buf (r : Protocol.response) =
  Protocol.response_payload buf r;
  match r with Protocol.Error _ -> false | _ -> true

(* This core's part of a request: a peer's call, or this core's share
   of its own fan-out. Never routes further, so a submit a peer placed
   here is admitted here and a fan-out's share never fans out again. *)
let local t buf (req : Protocol.request) =
  match req with
  | Protocol.Submit size -> submit_here t buf size
  | Protocol.Finish gid -> finish_here t buf gid
  | Protocol.Query gid -> query_here t buf gid
  | Protocol.Stats -> stats_here t buf
  | Protocol.Loads -> reply buf (Protocol.Loads_reply (Cluster.leaf_loads t.cluster))
  | Protocol.Metrics -> reply buf (Protocol.Metrics_reply (metrics t))
  | Protocol.Snapshot -> (
      match snapshot_now t with
      | Ok path -> reply buf (Protocol.Snapshot_reply path)
      | Error e -> reply buf (Protocol.Error e))
  | Protocol.Ping | Protocol.Health | Protocol.Shutdown ->
      invalid_arg "Server.local: not a shard's part of a request"

(* The response a payload holds, for the callers that need a value:
   {!handle} and the fan-outs' merges. *)
let response_of payload =
  match
    Protocol.decode_response_payload payload ~pos:0 ~limit:(String.length payload)
  with
  | Ok r -> r
  | Error e -> failwith ("pmpd: undecodable response payload: " ^ e)

(* ------------------------------------------------------------------ *)
(* peer calls                                                          *)

(* Run one peer's call on this core and push the answer back. Never
   blocks, which is what makes serving-while-waiting deadlock-free. It
   may run while a request of this core waits on a peer, so it writes
   only [part] and puts the request's arrival time back. A mutation
   republishes the load summaries before the answer leaves, so the
   caller's next placement sees it. *)
let service t m origin req =
  let seq0 = t.seq and t0 = t.req_t0 in
  if t.timed then t.req_t0 <- Unix.gettimeofday ();
  Buffer.clear t.part;
  let ok = local t t.part req in
  t.req_t0 <- t0;
  (match req with
  | Protocol.Submit _ when ok -> Metrics.Counter.incr t.ins.c_steal_in
  | _ -> ());
  let ticket = if t.seq > seq0 then t.seq else 0 in
  if ticket > 0 then begin
    t.owed.(origin) <- true;
    publish_load t m ~active_size:(Cluster.stats t.cluster).Cluster.active_size
  end;
  push m
    m.peer.(t.shard).(origin)
    (Presp { payload = Buffer.contents t.part; ok; ticket })
    ~dest:origin

(* Drain every inbound peer ring, running the calls found there. A
   response is handed to [on_resp] with the shard it came from. *)
let serve_peers ?(on_resp = fun _ _ -> failwith "peer response without a call")
    t m =
  for src = 0 to k t - 1 do
    if src <> t.shard then
      pop_all m.peer.(src).(t.shard) (function
        | Preq (origin, req) -> service t m origin req
        | Presp r -> on_resp src r)
  done

(* One synchronous call. While waiting, keep serving every inbound
   ring: a cycle of shards blocked on each other still progresses,
   since each answers the others from inside its wait. *)
let peer_call t m dest req =
  push m m.peer.(t.shard).(dest) (Preq (t.shard, req)) ~dest;
  let result = ref None in
  let on_resp src r =
    if src <> dest || Option.is_some !result then
      failwith "peer protocol: response from an uncalled shard";
    result := Some r
  in
  let rec wait spins =
    check_fail m;
    serve_peers ~on_resp t m;
    match !result with Some r -> r | None -> wait (pause t m spins)
  in
  wait 0

(* A mutation that ran on [dest] may only be acknowledged once [dest]'s
   WAL commit covers [ticket]; {!commit} waits for it. *)
let owe t dest ticket = if ticket > t.need.(dest) then t.need.(dest) <- ticket

(* Shard [dest]'s answer becomes this request's. *)
let take_reply t buf dest r =
  owe t dest r.ticket;
  Buffer.add_string buf r.payload;
  r.ok

let forward t m buf dest req = take_reply t buf dest (peer_call t m dest req)

let unexpected what = failwith ("peer " ^ what ^ ": unexpected response")

(* The daemon's answer to a [stats], [loads], [metrics] or [snapshot]:
   every shard's part, this one's included, merged in shard order by
   {!merge_parts}; the snapshot reply lists every shard's path. *)
let fan_out t m buf (req : Protocol.request) =
  let parts =
    Array.init (k t) (fun d ->
        response_of
          (if d = t.shard then begin
             Buffer.clear t.part;
             ignore (local t t.part req);
             Buffer.contents t.part
           end
           else (peer_call t m d req).payload))
  in
  reply buf
    (match req with
    | Protocol.Snapshot -> (
        match Array.find_opt (function Protocol.Error _ -> true | _ -> false) parts with
        | Some err -> err
        | None ->
            Protocol.Snapshot_reply
              (String.concat ","
                 (Array.to_list
                    (Array.map
                       (function
                         | Protocol.Snapshot_reply p -> p
                         | _ -> unexpected "snapshot")
                       parts))))
    | _ ->
        merge_parts
          ~sizes:(Array.make (k t) t.config.machine_size)
          req (Array.map Option.some parts))

(* Wait until every shard this batch mutated has published a durable
   watermark covering it, serving (and committing) peer calls meanwhile. *)
let await t m =
  for d = 0 to k t - 1 do
    let rec wait spins =
      if Atomic.get m.durable.(d) < t.need.(d) then begin
        check_fail m;
        serve_peers t m;
        settle t m;
        wait (pause t m spins)
      end
    in
    wait 0;
    t.need.(d) <- 0
  done

(* The group commit the loop runs after handling each batch and before
   any response byte reaches a socket — the durability watermark is
   the ordering itself. A shard then also waits for the commits of the
   shards its batch mutated through peer calls. *)
let commit t =
  commit_wal t;
  match t.mesh with
  | None -> ()
  | Some m ->
      publish t m;
      await t m

(* ------------------------------------------------------------------ *)
(* routing                                                             *)

(* Where each request runs — on this core, on the shard that owns its
   id, or on every shard — is chosen here once, for every way in. *)

(* The paper's greedy choice one level up, by {!Sharding.pick}: a
   submit of order [o] goes to the leftmost shard whose least max load
   over its order-[o] windows is the machine's least — the shard
   holding the whole tree's leftmost least-loaded window, which its own
   greedy allocator then picks — preferring admission headroom, unless
   home ties that choice. Home's figures are current; the peers' are
   what they last published, stale by at most a batch, which can make
   the choice suboptimal but never wrong: the shard picked admits
   under its own cluster. *)
let place t m size =
  let order = Pmp_util.Pow2.ilog2 size in
  let headroom =
    match Cluster.admission_capacity t.cluster with
    | None -> fun _ -> true
    | Some cap ->
        let own = (Cluster.stats t.cluster).Cluster.active_size in
        fun s ->
          (if s = t.shard then own else Atomic.get m.active_pub.(s)) + size <= cap
  in
  Sharding.pick ~home:t.shard ~shards:(k t)
    ~fits:(fun _ -> true)
    ~headroom
    (fun s ->
      if s = t.shard then Cluster.window_load t.cluster ~order
      else Atomic.get m.summary.(s).(order))
  |> Option.value ~default:t.shard

let submit t buf size =
  match t.mesh with
  | None -> submit_here t buf size
  | Some _ when size > t.config.machine_size ->
      Protocol.add_error buf
        (Printf.sprintf
           "size %d exceeds the per-shard maximum %d (machine %d over %d \
            domains)"
           size t.config.machine_size t.plan.Sharding.machine_size (k t));
      false
  | Some m ->
      let dest =
        if Pmp_util.Pow2.is_pow2 size then place t m size else t.shard
      in
      if dest = t.shard then submit_here t buf size
      else begin
        let r = peer_call t m dest (Protocol.Submit size) in
        if r.ok then Metrics.Counter.incr t.ins.c_steal_out;
        take_reply t buf dest r
      end

(* The shard owning a global id; negative ids name no task anywhere. *)
let is_local t gid = gid >= 0 && Sharding.owner ~shards:(k t) gid = t.shard

let finish t buf gid =
  match t.mesh with
  | Some m when not (is_local t gid) ->
      if gid < 0 then begin
        Protocol.add_error buf "unknown task";
        false
      end
      else forward t m buf (Sharding.owner ~shards:(k t) gid) (Protocol.Finish gid)
  | _ -> finish_here t buf gid

let query t buf gid =
  match t.mesh with
  | Some m when not (is_local t gid) ->
      if gid < 0 then begin
        Protocol.add_unknown buf gid;
        true
      end
      else forward t m buf (Sharding.owner ~shards:(k t) gid) (Protocol.Query gid)
  | _ -> query_here t buf gid

let health t =
  let seq, recovered =
    match t.mesh with
    | None -> (t.seq, t.recovered_ops)
    | Some m ->
        Array.fold_left
          (fun (sq, r) c ->
            ( (if c.shard = t.shard then sq + t.seq
               else sq + Atomic.get m.durable.(c.shard)),
              r + c.recovered_ops ))
          (0, 0) m.cores
  in
  (* A serving pmpd has by construction recovered and passed the
     oracle — {!create} refuses otherwise — so [ready] is [true]
     whenever this reply exists at all. *)
  Protocol.Health_reply
    {
      Protocol.ready = true;
      uptime_ms = int_of_float ((Unix.gettimeofday () -. t.started) *. 1000.0);
      seq = max 0 seq;
      recovered_ops = recovered;
    }

(* Run a decoded request, appending its response payload to [buf];
   [true] when it succeeded. *)
let run t buf (req : Protocol.request) =
  match req with
  | Protocol.Submit size -> submit t buf size
  | Protocol.Finish gid -> finish t buf gid
  | Protocol.Query gid -> query t buf gid
  | Protocol.Stats | Protocol.Loads | Protocol.Metrics | Protocol.Snapshot -> (
      match t.mesh with None -> local t buf req | Some m -> fan_out t m buf req)
  | Protocol.Ping -> reply buf Protocol.Pong
  | Protocol.Health -> reply buf (health t)
  | Protocol.Shutdown ->
      (match t.mesh with
      | Some m ->
          Atomic.set m.stop true;
          wake_all m
      | None -> ());
      reply buf Protocol.Bye

let handle t req =
  Metrics.Counter.incr t.ins.c_requests;
  if t.timed then t.req_t0 <- Unix.gettimeofday ();
  Buffer.clear t.scratch;
  if not (run t t.scratch req) then Metrics.Counter.incr t.ins.c_errors;
  (response_of (Buffer.contents t.scratch), req = Protocol.Shutdown)

(* ------------------------------------------------------------------ *)
(* the wire handler                                                    *)

(* A connection's request is counted as it starts, so a [metrics] dump
   counts the request asking for it. When it is answered: its error,
   with timing on its latency and the slow-request log, and its flight
   recorder entry — the opcode, a submit's task size (0 for any other
   request) and the covering WAL seq. With timing off this allocates
   nothing: all-immediate arguments. *)
let note_request t ~op ~size ~ok =
  if not ok then Metrics.Counter.incr t.ins.c_errors;
  let op = if op >= 0 && op < Array.length op_name then op else 0 in
  let dur_ns, ts_us =
    if t.timed then begin
      let t1 = Unix.gettimeofday () in
      let dur = t1 -. t.req_t0 in
      Metrics.Histogram.observe t.ins.h_req.(op) dur;
      if dur >= t.slow_s then begin
        Metrics.Counter.incr t.ins.c_slow;
        Printf.eprintf "pmpd: slow request op=%s dur_ms=%.3f seq=%d ok=%b\n%!"
          op_name.(op) (dur *. 1000.0) t.seq ok
      end;
      (int_of_float (dur *. 1e9), int_of_float (t1 *. 1e6))
    end
    else (0, 0)
  in
  Recorder.record t.recorder ~kind:Recorder.kind_request ~op ~tenant:0 ~size
    ~seq:t.seq ~dur_ns ~ts_us ~ok

(* The request [Frame.read] just found, read in place out of
   [inbuf]'s bytes: the rid peeled off, the request run, the answer
   wrapped in the rid's echo. Submit, finish and query go straight to
   their op with the argument the slot holds, and no request reaches
   the ops as a built value, so this path allocates only what the
   cluster does. One that does not read is answered untagged with the
   refusal. [true] when the server should stop. *)
let frame_request t inbuf out =
  Metrics.Counter.incr t.ins.c_requests;
  let r = t.reader and rq = t.slot and s = t.scratch in
  Buffer.clear s;
  let ok =
    match
      Protocol.read_request rq (Netbuf.bytes inbuf) ~pos:r.Frame.pos
        ~limit:r.Frame.limit
    with
    | exception Wire.Corrupt e ->
        Protocol.add_error s e;
        false
    | op -> (
        if rq.Protocol.tagged then Protocol.add_rid s rq.Protocol.rid;
        match op with
        | Protocol.Op_submit -> submit t s rq.Protocol.size
        | Protocol.Op_finish -> finish t s rq.Protocol.id
        | Protocol.Op_query -> query t s rq.Protocol.id
        | Protocol.Op req -> run t s req)
  in
  Frame.add out s;
  note_request t ~op:rq.Protocol.opcode ~size:rq.Protocol.size ~ok;
  ok && rq.Protocol.opcode = Protocol.opcode Protocol.Shutdown

(* A message [Frame.read] refused: one failed request of unknown op,
   answered with the refusal. *)
let refused_request t out =
  Metrics.Counter.incr t.ins.c_requests;
  Buffer.clear t.scratch;
  Protocol.add_error t.scratch t.reader.Frame.refusal;
  Frame.add out t.scratch;
  note_request t ~op:0 ~size:0 ~ok:false;
  false

(* Answer one message [Frame.read] found; [true] when the server
   should stop. *)
let handle_message t inbuf out = function
  | Frame.Frame -> frame_request t inbuf out
  | Frame.Refused -> refused_request t out
  | Frame.Incomplete -> false

(* The {!Loop} handler: up to [budget] requests off the front of
   [inbuf]. A top-level loop rather than a closure, which would be
   allocated every round. *)
let rec handle_from t inbuf out ~budget handled =
  if handled >= budget then `Handled handled
  else
    match Frame.read t.reader inbuf with
    | Frame.Incomplete -> `Handled handled
    | msg ->
        if t.timed then t.req_t0 <- Unix.gettimeofday ();
        if handle_message t inbuf out msg then `Stop (handled + 1)
        else handle_from t inbuf out ~budget (handled + 1)

let handle_conn t inbuf out ~budget = handle_from t inbuf out ~budget 0

let close t =
  Array.iter
    (fun c ->
      (try Wal.sync c.wal with Unix.Unix_error _ | Sys_error _ -> ());
      Wal.close c.wal)
    (shards t)

(* ------------------------------------------------------------------ *)
(* sockets                                                             *)

let listen_unix path =
  if Sys.file_exists path then Unix.unlink path;
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind fd (ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp ~host ~port =
  let addr = Unix.inet_addr_of_string host in
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  Unix.bind fd (ADDR_INET (addr, port));
  Unix.listen fd 64;
  let bound =
    match Unix.getsockname fd with
    | ADDR_INET (_, p) -> p
    | ADDR_UNIX _ -> port
  in
  (fd, bound)

(* One core's event loop. The SIGUSR1 handler only sets a flag: the
   dump itself runs on the loop's own schedule (tick for idle rounds,
   batch hook for busy ones), never from async-signal context. *)
let run_core t ~listeners ?inbox ~on_usr1 () =
  let check_usr1 () =
    if Atomic.exchange t.usr1 false then ignore (dump_recorder t)
  in
  try
    Loop.run
      ~on_accept:(fun () -> Metrics.Counter.incr t.ins.c_connections)
      ~on_batch:(fun n ->
        check_usr1 ();
        Metrics.Counter.incr t.ins.c_batches;
        Metrics.Histogram.observe t.ins.h_batch_size (float_of_int n))
      ~on_commit:(fun () -> commit t)
      ~on_usr1
      ?on_read_io:
        (if t.timed then
           Some (fun s -> Metrics.Histogram.observe t.ins.h_stage_read s)
         else None)
      ?on_write_io:
        (if t.timed then
           Some (fun s -> Metrics.Histogram.observe t.ins.h_stage_ack s)
         else None)
      ~tick:(fun () ->
        check_usr1 ();
        -1.0)
      ?inbox ~listeners ~handle:(handle_conn t) ()
  with e ->
    (* any abnormal exit — crash injection included — leaves the
       black box behind *)
    (try ignore (dump_recorder t) with Sys_error _ -> ());
    raise e

(* A shard's inbox, consulted once per loop round before it sleeps:
   run the peers' calls, commit what they appended, and take the
   connections the acceptor handed over — or report the stop. *)
let take t m () =
  drain_pipe m.pipes_r.(t.shard);
  check_fail m;
  serve_peers t m;
  settle t m;
  let fds = ref [] in
  pop_all m.acc.(t.shard) (fun fd -> fds := fd :: !fds);
  if Atomic.get m.stop then begin
    List.iter close_quietly !fds;
    None
  end
  else Some !fds

(* After its loop returns a shard keeps answering peer calls until
   every shard's loop has returned: calls are synchronous, so from
   then on none can be in flight. *)
let linger t m =
  Atomic.incr m.finished;
  wake_all m;
  let rec go spins =
    check_fail m;
    serve_peers t m;
    settle t m;
    if Atomic.get m.finished < k t then go (pause t m spins)
  in
  go 0

(* The calling thread accepts and deals connections round-robin to the
   shards' rings; connection affinity keeps a client's own traffic on
   one shard. *)
let acceptor m listeners =
  let k = Array.length m.cores in
  let pipe = m.pipes_r.(k) in
  let n = ref 0 in
  Fun.protect
    ~finally:(fun () -> List.iter close_quietly listeners)
    (fun () ->
      while not (Atomic.get m.stop) do
        match Unix.select (pipe :: listeners) [] [] 0.1 with
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | readable, _, _ ->
            List.iter
              (fun fd ->
                if fd == pipe then drain_pipe pipe
                else begin
                  match Unix.accept ~cloexec:true fd with
                  | client, _ ->
                      Unix.set_nonblock client;
                      let s = Sharding.conn_shard m.cores.(0).plan !n in
                      incr n;
                      push m m.acc.(s) client ~dest:s
                  | exception
                      Unix.Unix_error
                        ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _)
                    ->
                      ()
                end)
              readable
      done)

let serve_sharded t m ~listeners =
  let k = Array.length m.cores in
  let pipes = Array.init (k + 1) (fun _ -> Unix.pipe ~cloexec:true ()) in
  Array.iter
    (fun (r, w) ->
      Unix.set_nonblock r;
      Unix.set_nonblock w)
    pipes;
  m.pipes_r <- Array.map fst pipes;
  m.pipes_w <- Array.map snd pipes;
  (* every shard loop installs this same handler: flag each core, wake
     each loop so the dump runs on its next round *)
  let on_usr1 () =
    Array.iter (fun c -> Atomic.set c.usr1 true) m.cores;
    wake_all m
  in
  Loop.ignore_sigpipe ();
  Loop.setup_sigusr1 (Some on_usr1);
  let shard_main c () =
    match
      run_core c ~listeners:[] ~inbox:(m.pipes_r.(c.shard), take c m) ~on_usr1 ()
    with
    | exception e -> note_fail m e
    | () -> (
        match linger c m with
        | () -> ()
        | exception e ->
            (try ignore (dump_recorder c) with Sys_error _ -> ());
            note_fail m e)
  in
  let domains = Array.map (fun c -> Domain.spawn (shard_main c)) m.cores in
  (try acceptor m listeners with e -> note_fail m e);
  Array.iter Domain.join domains;
  (* connections dealt after their shard's loop returned, then the pipes *)
  Array.iter (fun ring -> pop_all ring close_quietly) m.acc;
  Array.iter close_quietly (Array.append m.pipes_r m.pipes_w);
  match Atomic.get m.fail with
  | Some e ->
      (* a crash (or any failure) abandons every WAL, as unsharded *)
      raise e
  | None -> close t

let serve t ~listeners =
  match t.mesh with
  | None ->
      run_core t ~listeners
        ~on_usr1:(fun () -> Atomic.set t.usr1 true)
        ();
      close t
  | Some m -> serve_sharded t m ~listeners
