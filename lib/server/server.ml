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
  wal_format : Wal.format;
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
    wal_format = Wal.Binary_records;
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
          ~help:"Tasks stolen between shards" "pmpd_shard_steals_total")
  in
  let c_steal_out =
    sharded Metrics.Counter.make (fun () ->
        Metrics.Registry.counter reg
          ~labels:(l @ [ ("dir", "out") ])
          "pmpd_shard_steals_total")
  in
  let g_shard_p99 =
    sharded Metrics.Gauge.make (fun () ->
        gauge ~help:"Rolling p99 load ratio of this shard's subtree"
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
   the sum (gauge [_max] high-water lines are maxed by suffix). *)
let merge_max_names = [ "pmpd_max_load"; "pmpd_p99_load_ratio" ]

(* Work one shard asks of another. Ids are global, sizes raw. *)
type peer_kind =
  | P_submit of int  (** steal: admit a task of this size over there *)
  | P_finish of int
  | P_query of int
  | P_stats
  | P_loads
  | P_metrics
  | P_snapshot

(* Calls are synchronous — a shard has at most one call outstanding
   and owes at most one response per peer — so a ring per ordered pair
   holds at most two messages and never fills. The int on [Presp] is
   the callee's durability ticket: its [seq] after the mutation the
   call ran, 0 when it ran none. *)
type peer_msg = Preq of int * peer_kind | Presp of Protocol.response * int

type t = {
  config : config;
      (** this core's: when sharded, [machine_size] is [N/K] and [dir]
          the shard's own directory *)
  cluster : Cluster.t;
  wal : Wal.t;
  reg : Metrics.Registry.t;
  ins : instruments;
  scratch : Buffer.t;
      (** reusable response-payload buffer: [Buffer.clear] keeps the
          storage, so the fast path encodes without allocating *)
  cur : Wire.cursor;  (** reusable varint decode position, same idea *)
  reader : Frame.reader;  (** where the last request read sits *)
  mutable seq : int;  (** durable mutation count since genesis *)
  mutable snap_tried : int;
      (** seq at the last periodic snapshot attempt, failed or not *)
  mutable fresh_mutations : int;  (** accepted by this process *)
  mutable crash_armed : bool;
      (** crash injection tripped; fires after the covering commit *)
  mutable last_fsync : float;  (** for the [Interval] policy *)
  recovered_ops : int;
  recorder : Recorder.t;
  timed : bool;  (** latency profiling or slow-request logging is on *)
  mutable req_t0 : float;
      (** arrival time of the request being handled, set only when
          [timed] — a field rather than an argument so the untimed
          fast path never boxes a float at a call boundary *)
  mutable cur_op : int;
      (** effective opcode of the binary request being handled: the
          frame's own opcode, except a rid-tagged wrapper reports its
          inner opcode so attribution survives tagging *)
  slow_s : float;  (** slow-request threshold in seconds; [infinity] off *)
  started : float;
  wal_base : int;  (** seq already durable when this process opened the WAL *)
  usr1 : bool Atomic.t;  (** a SIGUSR1 dump is pending *)
  ratio_ring : float array;  (** rolling load-ratio window, unboxed *)
  mutable ratio_n : int;  (** ratios ever pushed *)
  shard : int;  (** this core's shard; 0 unsharded *)
  k : int;  (** shard count K; 1 unsharded, where ids translate to themselves *)
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
  plan : Sharding.plan;
  mutable cores : t array;
  acc : Unix.file_descr Spsc.t array;  (** acceptor -> shard *)
  peer : peer_msg Spsc.t array array;  (** [peer.(src).(dst)] *)
  durable : int Atomic.t array;
      (** per shard: [seq] covered by its last WAL commit *)
  queued_pub : int Atomic.t array;  (** published queued_now, per shard *)
  active_pub : int Atomic.t array;  (** published active PE-size *)
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
let flightrec_path t = Filename.concat t.config.dir "flightrec.jsonl"

let dump_recorder t =
  let path = flightrec_path t in
  Recorder.dump t.recorder path;
  path

let request_dump = dump_recorder

let wal_lag t =
  let last = Wal.last_seq t.wal in
  if last = min_int then 0
  else max 0 (last - max (Wal.durable_seq t.wal) t.wal_base)

(* p99 of the rolling load-ratio window. The ring is written with
   plain float-array stores on the commit path; sorting a copy here is
   fine — rendering metrics is a cold path. *)
let rolling_p99 t =
  let n = min t.ratio_n (Array.length t.ratio_ring) in
  if n = 0 then 0.0
  else begin
    let copy = Array.sub t.ratio_ring 0 n in
    Array.sort Float.compare copy;
    copy.(min (n - 1) (int_of_float (float_of_int n *. 0.99)))
  end

(* This core's own dump; a sharded daemon answers [metrics] with the
   merge of every core's. *)
let metrics t =
  let p99 = rolling_p99 t in
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
  let* records = Wal.load (Filename.concat config.dir "wal.log") in
  let tail = List.filter (fun (seq, _) -> seq > snap_seq) records in
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
            | Wal.Submit { size; _ } -> (1, size)
            | Wal.Finish _ -> (2, 0)
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
    verify_cluster ~seq:last_seq ~admission_cap:config.admission_cap cluster
  in
  Ok (cluster, last_seq, snap_seq, List.length tail, snap <> None)

let update_gauges t =
  let s = Cluster.stats t.cluster in
  Metrics.Gauge.set t.ins.g_active (float_of_int s.Cluster.active_now);
  Metrics.Gauge.set t.ins.g_load (float_of_int s.Cluster.max_load);
  Metrics.Gauge.set t.ins.g_queued (float_of_int s.Cluster.queued_now);
  Metrics.Gauge.set t.ins.g_wal_lag (float_of_int (wal_lag t));
  if s.Cluster.optimal_now > 0 then begin
    t.ratio_ring.(t.ratio_n mod Array.length t.ratio_ring) <-
      float_of_int s.Cluster.max_load /. float_of_int s.Cluster.optimal_now;
    t.ratio_n <- t.ratio_n + 1
  end;
  match t.mesh with
  | None -> ()
  | Some m ->
      Metrics.Gauge.set t.ins.g_shard_queue (float_of_int s.Cluster.queued_now);
      Atomic.set m.queued_pub.(t.shard) s.Cluster.queued_now;
      Atomic.set m.active_pub.(t.shard) s.Cluster.active_size

(* One core over [config.dir]: recover whatever snapshot and WAL it
   holds, audit the result, open the WAL for appending. *)
let create_core config ~shard ~k ~mesh =
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
  | Ok (cluster, seq, snap_seq, replayed, had_snapshot) ->
      (* what a crash left behind: a [.tmp] from an interrupted save,
         a snapshot superseded before its prune ran *)
      Snapshot.prune ~dir:config.dir ~keep:snap_seq;
      let reg = Metrics.Registry.create () in
      let ins = make_instruments reg ~shard:(Option.map (fun _ -> shard) mesh) in
      if replayed > 0 || had_snapshot then begin
        Metrics.Counter.incr ins.c_recoveries;
        Metrics.Counter.inc ins.c_recovered_ops replayed;
        Metrics.Span.add ins.s_recovery (Unix.gettimeofday () -. t0)
      end;
      let wal =
        Wal.open_log ~format:config.wal_format
          (Filename.concat config.dir "wal.log")
      in
      let t =
        {
          config;
          cluster;
          wal;
          reg;
          ins;
          scratch = Buffer.create 256;
          cur = { Wire.pos = 0 };
          reader = Frame.reader ();
          seq;
          snap_tried = snap_seq;
          fresh_mutations = 0;
          crash_armed = false;
          last_fsync = Unix.gettimeofday ();
          recovered_ops = replayed;
          recorder;
          timed = config.latency_profile || config.slow_ms <> None;
          req_t0 = 0.0;
          cur_op = 0;
          slow_s =
            (match config.slow_ms with
            | Some ms -> ms /. 1000.0
            | None -> infinity);
          started = Unix.gettimeofday ();
          wal_base = seq;
          usr1 = Atomic.make false;
          ratio_ring = Array.make 1024 0.0;
          ratio_n = 0;
          shard;
          k;
          leaf_off = shard * config.machine_size;
          mesh;
          published = seq;
          need = Array.make k 0;
          owed = Array.make k false;
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
    if k = 1 then create_core config ~shard:0 ~k ~mesh:None
    else
      let* plan =
        Sharding.plan ~machine_size:config.machine_size ~shards:k
      in
      let m =
        {
          plan;
          cores = [||];
          acc = Array.init k (fun _ -> Spsc.create 1024);
          peer = Array.init k (fun _ -> Array.init k (fun _ -> Spsc.create 8));
          durable = Array.init k (fun _ -> Atomic.make 0);
          queued_pub = Array.init k (fun _ -> Atomic.make 0);
          active_pub = Array.init k (fun _ -> Atomic.make 0);
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
          match create_core shard_config ~shard:s ~k ~mesh:(Some m) with
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
  | Wal.Group | Wal.Interval _ | Wal.Never ->
      if crash_due then t.crash_armed <- true

(* This core's group commit: one write (and per policy one fsync)
   covering every mutation appended since the last one. *)
let commit_wal t =
  observe_group t;
  let fsync =
    match t.config.fsync_policy with
    | Wal.Always | Wal.Group -> true
    | Wal.Interval _ | Wal.Never -> false
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
(* shard-local operations                                              *)

let globalize t (p : Protocol.placement) =
  if t.leaf_off = 0 then p else { p with Protocol.base = p.Protocol.base + t.leaf_off }

(* Admit a task on this core, whoever asked: the id comes out of this
   shard's namespace ([local * K + shard]), so a stolen task routes to
   the shard that runs it for every later finish and query. *)
let admit_local t size =
  match Cluster.submit t.cluster ~size with
  | Ok sub ->
      let lid = match sub with Cluster.Placed (i, _) | Cluster.Queued i -> i in
      t.seq <- t.seq + 1;
      Wal.append_submit t.wal ~seq:t.seq ~id:lid ~size;
      after_mutation t;
      let gid = (lid * t.k) + t.shard in
      (match sub with
      | Cluster.Placed (_, p) ->
          Protocol.Placed (gid, globalize t (Protocol.placement_of_core p))
      | Cluster.Queued _ -> Protocol.Queued gid)
  | Error e -> Protocol.Error e

let finish_local t gid =
  let lid = gid / t.k in
  match Cluster.finish t.cluster lid with
  | Ok () ->
      t.seq <- t.seq + 1;
      Wal.append_finish t.wal ~seq:t.seq ~id:lid;
      after_mutation t;
      Protocol.Finished
  | Error e -> Protocol.Error e

let query_local t gid =
  let lid = gid / t.k in
  let state =
    match Cluster.placement t.cluster lid with
    | Some p -> Protocol.Active (globalize t (Protocol.placement_of_core p))
    | None ->
        if Cluster.is_queued t.cluster lid then Protocol.Queued_task
        else Protocol.Unknown
  in
  Protocol.State (gid, state)

let mutated = function
  | Protocol.Placed _ | Protocol.Queued _ | Protocol.Finished -> true
  | _ -> false

(* This core's part of a peer call (or of its own fan-out). *)
let answer t kind =
  match kind with
  | P_submit size ->
      Metrics.Counter.incr t.ins.c_steal_in;
      admit_local t size
  | P_finish gid -> finish_local t gid
  | P_query gid -> query_local t gid
  | P_stats -> Protocol.Stats_reply (Cluster.stats t.cluster)
  | P_loads -> Protocol.Loads_reply (Array.copy (Cluster.leaf_loads t.cluster))
  | P_metrics -> Protocol.Metrics_reply (metrics t)
  | P_snapshot -> (
      match snapshot_now t with
      | Ok path -> Protocol.Snapshot_reply path
      | Error e -> Protocol.Error e)

(* Run one peer's call on this core and push the response back. Never
   blocks, which is what makes serving-while-waiting deadlock-free. *)
let service t m origin kind =
  let resp = answer t kind in
  let ticket = if mutated resp then t.seq else 0 in
  if ticket > 0 then t.owed.(origin) <- true;
  push m m.peer.(t.shard).(origin) (Presp (resp, ticket)) ~dest:origin

(* Drain every inbound peer ring, running the calls found there. A
   response is handed to [on_resp] with the shard it came from. *)
let serve_peers ?(on_resp = fun _ _ -> failwith "peer response without a call")
    t m =
  for src = 0 to t.k - 1 do
    if src <> t.shard then
      pop_all m.peer.(src).(t.shard) (function
        | Preq (origin, kind) -> service t m origin kind
        | Presp (r, ticket) -> on_resp src (r, ticket))
  done

(* One synchronous call. While waiting, keep serving every inbound
   ring: a cycle of shards blocked on each other still progresses,
   since each answers the others from inside its wait. *)
let peer_call t m dest kind =
  push m m.peer.(t.shard).(dest) (Preq (t.shard, kind)) ~dest;
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

(* Every shard's answer to [kind], this one's included, in shard order. *)
let fan_out t m kind =
  List.init t.k (fun d ->
      if d = t.shard then answer t kind else fst (peer_call t m d kind))

let unexpected what = failwith ("peer " ^ what ^ ": unexpected response")

(* Wait until every shard this batch mutated has published a durable
   watermark covering it, serving (and committing) peer calls meanwhile. *)
let await t m =
  for d = 0 to t.k - 1 do
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

(* Select-timeout cap for the [Interval] policy: fsync when the
   deadline passes, report the time to the next one. *)
let tick t () =
  match t.config.fsync_policy with
  | Wal.Interval every ->
      let now = Unix.gettimeofday () in
      if now -. t.last_fsync >= every then begin
        if Wal.commit t.wal ~fsync:true then
          Metrics.Counter.incr t.ins.c_fsyncs;
        t.last_fsync <- now
      end;
      Float.max 0.0 (t.last_fsync +. every -. now)
  | Wal.Always | Wal.Group | Wal.Never -> -1.0

(* ------------------------------------------------------------------ *)
(* request handling                                                    *)

(* Steal when the home shard has a queue (or this task would start
   one): [Sharding.pick_victim] over the published depths, stale by at
   most a batch — which can make the choice suboptimal but never
   wrong, since the victim admits under its own cluster. *)
let steal_target t m size =
  let s = Cluster.stats t.cluster in
  let cap_pes = Cluster.admission_capacity t.cluster in
  let would_queue =
    match cap_pes with
    | Some c -> s.Cluster.active_size + size > c
    | None -> false
  in
  if s.Cluster.queued_now > 0 || would_queue then
    Sharding.pick_victim m.plan ~self:t.shard ~size ~cap_pes
      ~queued:
        (Array.init t.k (fun i ->
             if i = t.shard then s.Cluster.queued_now
             else Atomic.get m.queued_pub.(i)))
      ~active:
        (Array.init t.k (fun i ->
             if i = t.shard then s.Cluster.active_size
             else Atomic.get m.active_pub.(i)))
  else None

let submit t size =
  match t.mesh with
  | None -> admit_local t size
  | Some m when size > t.config.machine_size ->
      Protocol.Error
        (Printf.sprintf
           "size %d exceeds the per-shard maximum %d (machine %d over %d \
            domains)"
           size t.config.machine_size m.plan.Sharding.machine_size t.k)
  | Some m -> (
      match steal_target t m size with
      | None -> admit_local t size
      | Some dest -> (
          match peer_call t m dest (P_submit size) with
          | Protocol.Error _, _ ->
              (* the victim's view changed under us: admit at home,
                 which may queue — the correct fallback *)
              admit_local t size
          | resp, ticket ->
              Metrics.Counter.incr t.ins.c_steal_out;
              owe t dest ticket;
              resp))

(* The shard owning a global id; negative ids name no task anywhere. *)
let is_local t gid = t.k = 1 || (gid >= 0 && gid mod t.k = t.shard)

let finish t gid =
  match t.mesh with
  | Some m when not (is_local t gid) ->
      if gid < 0 then Protocol.Error "unknown task"
      else begin
        let dest = gid mod t.k in
        let resp, ticket = peer_call t m dest (P_finish gid) in
        owe t dest ticket;
        resp
      end
  | _ -> finish_local t gid

let query t gid =
  match t.mesh with
  | Some m when not (is_local t gid) ->
      if gid < 0 then Protocol.State (gid, Protocol.Unknown)
      else fst (peer_call t m (gid mod t.k) (P_query gid))
  | _ -> query_local t gid

let stats t =
  match t.mesh with
  | None -> Cluster.stats t.cluster
  | Some m ->
      Cluster.merge_stats ~machine_size:m.plan.Sharding.machine_size
        (List.map
           (function Protocol.Stats_reply s -> s | _ -> unexpected "stats")
           (fan_out t m P_stats))

(* Shard [s] owns the global leaves [[s*N/K, (s+1)*N/K)], so the loads
   concatenate in shard order into the unsharded vector. *)
let loads t =
  match t.mesh with
  | None -> Cluster.leaf_loads t.cluster
  | Some m ->
      Array.concat
        (List.map
           (function Protocol.Loads_reply l -> l | _ -> unexpected "loads")
           (fan_out t m P_loads))

let all_metrics t =
  match t.mesh with
  | None -> metrics t
  | Some m ->
      Metrics.merge_prometheus ~max_names:merge_max_names
        (List.map
           (function Protocol.Metrics_reply d -> d | _ -> unexpected "metrics")
           (fan_out t m P_metrics))

(* Every shard snapshots; the reply lists their paths in shard order. *)
let snapshot t =
  match t.mesh with
  | None -> answer t P_snapshot
  | Some m -> (
      let parts = fan_out t m P_snapshot in
      match
        List.find_opt (function Protocol.Error _ -> true | _ -> false) parts
      with
      | Some err -> err
      | None ->
          Protocol.Snapshot_reply
            (String.concat ","
               (List.map
                  (function Protocol.Snapshot_reply p -> p | _ -> "")
                  parts)))

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

(* Every request, decoded: the JSON path, rare binary opcodes and the
   requests a shard must route to its peers. *)
let respond t (req : Protocol.request) =
  match req with
  | Protocol.Submit size -> (submit t size, false)
  | Protocol.Finish id -> (finish t id, false)
  | Protocol.Query id -> (query t id, false)
  | Protocol.Stats -> (Protocol.Stats_reply (stats t), false)
  | Protocol.Loads -> (Protocol.Loads_reply (loads t), false)
  | Protocol.Metrics -> (Protocol.Metrics_reply (all_metrics t), false)
  | Protocol.Snapshot -> (snapshot t, false)
  | Protocol.Ping -> (Protocol.Pong, false)
  | Protocol.Health -> (health t, false)
  | Protocol.Shutdown ->
      (match t.mesh with
      | Some m ->
          Atomic.set m.stop true;
          wake_all m
      | None -> ());
      (Protocol.Bye, true)

let handle t req =
  Metrics.Counter.incr t.ins.c_requests;
  let ((resp, _) as r) = respond t req in
  (match resp with
  | Protocol.Error _ -> Metrics.Counter.incr t.ins.c_errors
  | _ -> ());
  r

(* Slow-request log + per-opcode latency + flight-recorder entry for
   one finished request. With timing off this is a single [record]
   call: all-immediate arguments, no allocation. *)
let note_request t ~op ~size ~ok =
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

let handle_line t line =
  match Protocol.decode_request_rid line with
  | Error e ->
      Metrics.Counter.incr t.ins.c_requests;
      Metrics.Counter.incr t.ins.c_errors;
      `Reply (0, false, Protocol.encode_response (Protocol.Error e))
  | Ok (req, rid) ->
      let resp, stop = handle t req in
      let wire = Protocol.encode_response ?rid resp in
      let ok = match resp with Protocol.Error _ -> false | _ -> true in
      if stop then `Stop (Protocol.opcode req, ok, wire)
      else `Reply (Protocol.opcode req, ok, wire)

(* ------------------------------------------------------------------ *)
(* the wire handler                                                    *)

(* An error response in the request's own encoding. *)
let reply_error t out ~binary e =
  Metrics.Counter.incr t.ins.c_errors;
  if binary then begin
    Buffer.clear t.scratch;
    Protocol.response_payload t.scratch (Protocol.Error e);
    Frame.add out t.scratch
  end
  else Frame.add_line out (Protocol.encode_response (Protocol.Error e))

let add_scratch_placement t s (p : Pmp_core.Placement.t) =
  Wire.add_varint s
    (Pmp_machine.Submachine.first_leaf p.Pmp_core.Placement.sub + t.leaf_off);
  Wire.add_varint s (Pmp_machine.Submachine.size p.Pmp_core.Placement.sub);
  Wire.add_varint s p.Pmp_core.Placement.copy

(* A hot-opcode request this shard cannot answer alone — a peer's id,
   a steal, a fan-out — goes through {!respond} like the JSON path. *)
let routed t out req =
  match fst (respond t req) with
  | Protocol.Error e -> `Error e
  | resp ->
      Buffer.clear t.scratch;
      Protocol.response_payload t.scratch resp;
      Frame.add out t.scratch;
      `Ok

(* Decode and apply one binary request whose payload spans
   [[pos0, limit)] of [b], encoding the response straight into [out].
   Submit, finish, query and stats — the hot opcodes — are dispatched
   inline without building a [Protocol.request], a [Protocol.response]
   or any intermediate string: the only per-request allocations left
   on these paths are the cluster's own. Ids and leaves translate by
   the shard's offsets, the identity when unsharded. *)
let dispatch t out b pos0 limit =
  let opcode = Char.code (Bytes.unsafe_get b pos0) in
  let cur = t.cur in
  cur.Wire.pos <- pos0 + 1;
  match
    if opcode >= 1 && opcode <= 4 then begin
      Metrics.Counter.incr t.ins.c_requests;
      match opcode with
      | 1 (* submit *) ->
          let size = Wire.read_varint b cur limit in
          if cur.Wire.pos <> limit then `Error "trailing bytes in frame"
          else if
            t.k > 1
            && (size > t.config.machine_size
               ||
               match t.mesh with
               | Some m -> steal_target t m size <> None
               | None -> false)
          then routed t out (Protocol.Submit size)
          else begin
            let td = if t.timed then Unix.gettimeofday () else 0.0 in
            match Cluster.submit t.cluster ~size with
            | Ok sub ->
                let id =
                  match sub with
                  | Cluster.Placed (id, _) | Cluster.Queued id -> id
                in
                let ta = if t.timed then Unix.gettimeofday () else 0.0 in
                t.seq <- t.seq + 1;
                Wal.append_submit t.wal ~seq:t.seq ~id ~size;
                after_mutation t;
                if t.timed then begin
                  let tw = Unix.gettimeofday () in
                  Metrics.Histogram.observe t.ins.h_stage_decode (td -. t.req_t0);
                  Metrics.Histogram.observe t.ins.h_stage_apply (ta -. td);
                  Metrics.Histogram.observe t.ins.h_stage_wal (tw -. ta)
                end;
                let s = t.scratch in
                Buffer.clear s;
                (match sub with
                | Cluster.Placed (id, p) ->
                    Buffer.add_char s '\001';
                    Wire.add_varint s ((id * t.k) + t.shard);
                    add_scratch_placement t s p
                | Cluster.Queued id ->
                    Buffer.add_char s '\002';
                    Wire.add_varint s ((id * t.k) + t.shard));
                Frame.add out t.scratch;
                `Ok
            | Error e -> `Error e
          end
      | 2 (* finish *) ->
          let id = Wire.read_varint b cur limit in
          if cur.Wire.pos <> limit then `Error "trailing bytes in frame"
          else if not (is_local t id) then routed t out (Protocol.Finish id)
          else begin
            let lid = id / t.k in
            let td = if t.timed then Unix.gettimeofday () else 0.0 in
            match Cluster.finish t.cluster lid with
            | Ok () ->
                let ta = if t.timed then Unix.gettimeofday () else 0.0 in
                t.seq <- t.seq + 1;
                Wal.append_finish t.wal ~seq:t.seq ~id:lid;
                after_mutation t;
                if t.timed then begin
                  let tw = Unix.gettimeofday () in
                  Metrics.Histogram.observe t.ins.h_stage_decode (td -. t.req_t0);
                  Metrics.Histogram.observe t.ins.h_stage_apply (ta -. td);
                  Metrics.Histogram.observe t.ins.h_stage_wal (tw -. ta)
                end;
                Buffer.clear t.scratch;
                Buffer.add_char t.scratch '\003';
                Frame.add out t.scratch;
                `Ok
            | Error e -> `Error e
          end
      | 3 (* query *) ->
          let id = Wire.read_varint b cur limit in
          if cur.Wire.pos <> limit then `Error "trailing bytes in frame"
          else if not (is_local t id) then routed t out (Protocol.Query id)
          else begin
            let lid = id / t.k in
            let td = if t.timed then Unix.gettimeofday () else 0.0 in
            let s = t.scratch in
            Buffer.clear s;
            Buffer.add_char s '\004';
            Wire.add_varint s id;
            (match Cluster.placement t.cluster lid with
            | Some p ->
                Buffer.add_char s '\002';
                add_scratch_placement t s p
            | None ->
                if Cluster.is_queued t.cluster lid then Buffer.add_char s '\001'
                else Buffer.add_char s '\000');
            Frame.add out t.scratch;
            if t.timed then begin
              Metrics.Histogram.observe t.ins.h_stage_decode (td -. t.req_t0);
              Metrics.Histogram.observe t.ins.h_stage_apply
                (Unix.gettimeofday () -. td)
            end;
            `Ok
          end
      | _ (* 4, stats *) ->
          if cur.Wire.pos <> limit then `Error "trailing bytes in frame"
          else if t.k > 1 then routed t out Protocol.Stats
          else begin
            let td = if t.timed then Unix.gettimeofday () else 0.0 in
            let st = Cluster.stats t.cluster in
            let s = t.scratch in
            Buffer.clear s;
            Buffer.add_char s '\005';
            Wire.add_varint s st.Cluster.submitted;
            Wire.add_varint s st.Cluster.completed;
            Wire.add_varint s st.Cluster.queued_now;
            Wire.add_varint s st.Cluster.active_now;
            Wire.add_varint s st.Cluster.active_size;
            Wire.add_varint s st.Cluster.max_load;
            Wire.add_varint s st.Cluster.peak_load;
            Wire.add_varint s st.Cluster.optimal_now;
            Wire.add_varint s st.Cluster.reallocations;
            Wire.add_varint s st.Cluster.tasks_migrated;
            Frame.add out t.scratch;
            if t.timed then
              Metrics.Histogram.observe t.ins.h_stage_apply
                (Unix.gettimeofday () -. td);
            `Ok
          end
    end
    else begin
      (* rare opcodes — including rid-tagged wrappers — fall back to
         the allocating decoder; a tagged response echoes the rid *)
      let payload = Bytes.sub_string b pos0 (limit - pos0) in
      match
        Protocol.decode_request_payload_rid payload ~pos:0
          ~limit:(String.length payload)
      with
      | Error e ->
          Metrics.Counter.incr t.ins.c_requests;
          `Error e
      | Ok (req, rid) ->
          t.cur_op <- Protocol.opcode req;
          let resp, stop = handle t req in
          Buffer.clear t.scratch;
          (match rid with
          | None -> Protocol.response_payload t.scratch resp
          | Some rid -> Protocol.response_payload_rid t.scratch ~rid resp);
          Frame.add out t.scratch;
          if stop then `Stop else `Ok
    end
  with
  | r -> r
  | exception Wire.Corrupt e -> `Error e

(* The binary request [Frame.read] just found: decode and apply it
   straight out of [inbuf]'s bytes. [true] when the server should stop. *)
let frame_request t inbuf out =
  let r = t.reader in
  let b = Netbuf.bytes inbuf and size = r.Frame.limit - r.Frame.pos in
  t.cur_op <- Char.code (Bytes.unsafe_get b r.Frame.pos);
  match dispatch t out b r.Frame.pos r.Frame.limit with
  | `Ok ->
      note_request t ~op:t.cur_op ~size ~ok:true;
      false
  | `Error e ->
      reply_error t out ~binary:true e;
      note_request t ~op:t.cur_op ~size ~ok:false;
      false
  | `Stop ->
      note_request t ~op:t.cur_op ~size ~ok:true;
      true

(* The JSON line [Frame.read] just found. This is the debug path — old
   clients and humans — so allocation is fine. *)
let line_request t inbuf out =
  let r = t.reader in
  let (`Reply (op, ok, wire) | `Stop (op, ok, wire)) as reply =
    handle_line t (Frame.payload r inbuf)
  in
  Frame.add_line out wire;
  note_request t ~op ~size:(r.Frame.limit - r.Frame.pos) ~ok;
  match reply with `Stop _ -> true | `Reply _ -> false

(* A message [Frame.read] refused: one failed request of unknown op,
   answered in the encoding it arrived in. *)
let refused_request t out ~binary =
  let r = t.reader in
  Metrics.Counter.incr t.ins.c_requests;
  reply_error t out ~binary r.Frame.refusal;
  note_request t ~op:0 ~size:(r.Frame.limit - r.Frame.pos) ~ok:false;
  false

(* Answer one message [Frame.read] found; [true] when the server
   should stop. *)
let handle_message t inbuf out = function
  | Frame.Frame -> frame_request t inbuf out
  | Frame.Line -> line_request t inbuf out
  | Frame.Refused_frame -> refused_request t out ~binary:true
  | Frame.Refused_line -> refused_request t out ~binary:false
  | Frame.Incomplete -> false

(* The {!Loop} handler: up to [budget] requests off the front of
   [inbuf], binary frames and JSON lines alike. A top-level loop rather
   than a closure, which would be allocated every round. *)
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
        tick t ())
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
    if Atomic.get m.finished < t.k then go (pause t m spins)
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
                      let s = Sharding.conn_shard m.plan !n in
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
