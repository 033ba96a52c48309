module Cluster = Pmp_cluster.Cluster
module Metrics = Pmp_telemetry.Metrics
module Event = Pmp_workload.Event

type config = {
  machine_size : int;
  policy : Cluster.policy;
  admission_cap : float option;
  dir : string;
  fsync_policy : Wal.fsync_policy;
  wal_format : Wal.format;
  snapshot_every : int;
  crash_after : int option;
  loop : Loop.config;
  latency_profile : bool;
  slow_ms : float option;
  recorder_size : int;
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
    loop = Loop.default_config;
    latency_profile = false;
    slow_ms = None;
    recorder_size = 256;
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

let op_index (req : Protocol.request) =
  match req with
  | Protocol.Submit _ -> 1
  | Protocol.Finish _ -> 2
  | Protocol.Query _ -> 3
  | Protocol.Stats -> 4
  | Protocol.Loads -> 5
  | Protocol.Metrics -> 6
  | Protocol.Snapshot -> 7
  | Protocol.Ping -> 8
  | Protocol.Shutdown -> 9
  | Protocol.Health -> 10

(* 1µs .. ~8s in doubling buckets: spans a cache-warm varint decode to
   a pathological fsync stall with 24 buckets. *)
let time_bounds = Metrics.log_bounds ~start:1e-6 ~ratio:2.0 ~count:24

let make_instruments reg =
  let counter = Metrics.Registry.counter reg in
  let stage_hist ?(help = "") stage =
    Metrics.Registry.histogram reg
      ~labels:[ ("stage", stage) ]
      ~help "pmpd_stage_seconds" time_bounds
  in
  {
    c_requests = counter ~help:"Requests handled" "pmpd_requests_total";
    c_mutations =
      counter ~help:"Accepted mutations (WAL records)" "pmpd_mutations_total";
    c_errors = counter ~help:"Requests answered with an error" "pmpd_errors_total";
    c_batches = counter ~help:"Select-round request batches" "pmpd_batches_total";
    h_batch_size =
      Metrics.Registry.histogram reg ~help:"Requests per batch"
        "pmpd_batch_size"
        (Metrics.log_bounds ~start:1.0 ~ratio:2.0 ~count:12);
    h_group_size =
      Metrics.Registry.histogram reg ~help:"WAL records per group commit"
        "pmpd_wal_group_size"
        (Metrics.log_bounds ~start:1.0 ~ratio:2.0 ~count:12);
    c_connections = counter ~help:"Connections accepted" "pmpd_connections_total";
    c_fsyncs = counter ~help:"WAL fsyncs" "pmpd_fsync_total";
    c_snapshots = counter ~help:"Snapshots written" "pmpd_snapshots_total";
    c_recoveries =
      counter ~help:"Startups that replayed durable state" "pmpd_recoveries_total";
    c_recovered_ops =
      counter ~help:"WAL records replayed at startup" "pmpd_recovered_ops_total";
    s_recovery =
      Metrics.Registry.span reg ~help:"Startup recovery time"
        "pmpd_recovery_seconds";
    s_snapshot =
      Metrics.Registry.span reg ~help:"Snapshot write time"
        "pmpd_snapshot_seconds";
    g_active = Metrics.Registry.gauge reg ~help:"Active tasks" "pmpd_active_tasks";
    g_load = Metrics.Registry.gauge reg ~help:"Current max PE load" "pmpd_max_load";
    g_queued = Metrics.Registry.gauge reg ~help:"Queued tasks" "pmpd_queued_tasks";
    c_slow =
      counter ~help:"Requests over the slow-request threshold"
        "pmpd_slow_requests_total";
    g_wal_lag =
      Metrics.Registry.gauge reg
        ~help:"WAL records written but not yet known durable" "pmpd_wal_lag";
    g_p99_ratio =
      Metrics.Registry.gauge reg
        ~help:"Rolling-window p99 of max-load over optimal load"
        "pmpd_p99_load_ratio";
    h_req =
      Array.init (Array.length op_name) (fun i ->
          Metrics.Registry.histogram reg
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
  }

type t = {
  config : config;
  cluster : Cluster.t;
  wal : Wal.t;
  reg : Metrics.Registry.t;
  ins : instruments;
  scratch : Buffer.t;
      (** reusable response-payload buffer: [Buffer.clear] keeps the
          storage, so the fast path encodes without allocating *)
  cur : Wire.cursor;  (** reusable varint decode position, same idea *)
  mutable seq : int;  (** durable mutation count since genesis *)
  mutable snap_seq : int;  (** seq covered by the latest snapshot *)
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
}

let cluster t = t.cluster
let seq t = t.seq
let recovered_ops t = t.recovered_ops
let registry t = t.reg
let recorder t = t.recorder
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

let metrics t =
  Metrics.Gauge.set t.ins.g_p99_ratio (rolling_p99 t);
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

let build_allocator policy machine =
  match (policy : Cluster.policy) with
  | Cluster.Greedy -> Pmp_core.Greedy.create machine
  | Cluster.Copies -> Pmp_core.Copies.create machine
  | Cluster.Optimal -> Pmp_core.Optimal.create machine
  | Cluster.Periodic d -> Pmp_core.Periodic.create machine ~d
  | Cluster.Hybrid d -> Pmp_core.Hybrid.create machine ~d
  | Cluster.Randomized seed ->
      Pmp_core.Randomized.create machine ~rng:(Pmp_prng.Splitmix64.create seed)

(* Bit-for-bit behavioural equality of two clusters: stats, loads,
   queue, id counter, and the placement of every task either side has
   ever admitted. *)
let same_state a b =
  let arrived c =
    List.filter_map
      (function Event.Arrive task -> Some task.Pmp_workload.Task.id | _ -> None)
      (Cluster.events c)
  in
  if Cluster.stats a <> Cluster.stats b then Error "stats differ"
  else if Cluster.leaf_loads a <> Cluster.leaf_loads b then Error "loads differ"
  else if Cluster.queued_tasks a <> Cluster.queued_tasks b then
    Error "queues differ"
  else if Cluster.next_id a <> Cluster.next_id b then Error "next ids differ"
  else begin
    let mismatch =
      List.find_opt
        (fun id ->
          match (Cluster.placement a id, Cluster.placement b id) with
          | None, None -> false
          | Some p, Some q -> not (Pmp_core.Placement.equal p q)
          | _ -> true)
        (arrived a @ arrived b)
    in
    match mismatch with
    | None -> Ok ()
    | Some id -> Error (Printf.sprintf "placement of task %d differs" id)
  end

(* The recovered state must prove itself: the history passes the
   structural conformance oracle with a fresh allocator, and a fresh
   replay of the externalised state reproduces the cluster exactly.
   Exposed (as [verify_cluster]) so the sharded server can run the
   same audit on each shard's recovered cluster. *)
let verify_cluster ~machine_size ~policy ~admission_cap cluster =
  let machine = Pmp_machine.Machine.create machine_size in
  let make () = build_allocator policy machine in
  let* () =
    match
      Pmp_oracle.Oracle.run Pmp_oracle.Oracle.structural_only ~make
        (Cluster.history cluster)
    with
    | Ok () -> Ok ()
    | Error v ->
        Error
          (Format.asprintf "recovered history fails the oracle: %a"
             Pmp_oracle.Oracle.pp_violation v)
  in
  let snap = Snapshot.of_cluster ~seq:0 ~admission_cap cluster in
  let* replayed = Snapshot.restore snap in
  match same_state cluster replayed with
  | Ok () -> Ok ()
  | Error e -> Error ("recovered state diverges from a fresh replay: " ^ e)

let verify_recovery config cluster =
  verify_cluster ~machine_size:config.machine_size ~policy:config.policy
    ~admission_cap:config.admission_cap cluster

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

let apply_wal_op = apply_op

let recover config recorder =
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
          let* c = Snapshot.restore s in
          Ok (c, s.Snapshot.seq)
  in
  let* records = Wal.load (Filename.concat config.dir "wal.log") in
  let tail = List.filter (fun (seq, _) -> seq > snap_seq) records in
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
  let* () = verify_recovery config cluster in
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
  end

let create config =
  if config.snapshot_every < 0 then Error "snapshot_every must be non-negative"
  else if config.recorder_size < 0 then
    Error "recorder_size must be non-negative"
  else begin
    mkdir_p config.dir;
    (match
       let ic = open_in (Filename.concat config.dir "domains") in
       let k = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
       close_in ic;
       k
     with
    | exception Sys_error _ -> Ok ()
    | k when k > 1 ->
        Error
          (Printf.sprintf
             "state directory %s was written by a sharded server; restart \
              with --domains=%d"
             config.dir k)
    | _ -> Ok ())
    |> function
    | Error e -> Error e
    | Ok () ->
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
        let reg = Metrics.Registry.create () in
        let ins = make_instruments reg in
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
            seq;
            snap_seq;
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
          }
        in
        update_gauges t;
        Ok t
  end

(* ------------------------------------------------------------------ *)
(* request handling                                                    *)

let snapshot_now t =
  let t0 = Unix.gettimeofday () in
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
      t.snap_seq <- t.seq;
      Metrics.Counter.incr t.ins.c_snapshots;
      Metrics.Span.add t.ins.s_snapshot (Unix.gettimeofday () -. t0);
      Ok path
  | exception Sys_error e -> Error e
  | exception Unix.Unix_error (err, fn, _) ->
      Error (fn ^ ": " ^ Unix.error_message err)

let observe_group t =
  let n = Wal.pending_records t.wal in
  if n > 0 then
    Metrics.Histogram.observe t.ins.h_group_size (float_of_int n)

(* Bookkeeping after an accepted mutation (the WAL record is already
   appended, pending). Under [Always] the record is forced to disk
   here, before the response can even be queued; under the batched
   policies it stays pending until {!commit}, and crash injection only
   arms — the trip fires after the covering commit, so the crash always
   lands at the harshest point: acknowledged, durable, unreported. *)
let after_mutation t =
  t.fresh_mutations <- t.fresh_mutations + 1;
  Metrics.Counter.incr t.ins.c_mutations;
  if
    t.config.snapshot_every > 0
    && t.seq - t.snap_seq >= t.config.snapshot_every
  then ignore (snapshot_now t);
  let crash_due =
    match t.config.crash_after with
    | Some k -> t.fresh_mutations >= k
    | None -> false
  in
  match t.config.fsync_policy with
  | Wal.Always ->
      observe_group t;
      if Wal.commit t.wal ~fsync:true then Metrics.Counter.incr t.ins.c_fsyncs;
      if crash_due then raise Crash
  | Wal.Group | Wal.Interval _ | Wal.Never ->
      if crash_due then t.crash_armed <- true

(* The group commit: one write (and per policy one fsync) covering
   every mutation of the batch. The loop runs this after handling and
   before any response byte reaches a socket — the durability
   watermark is the ordering itself. *)
let commit t =
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

let handle t (req : Protocol.request) : Protocol.response * bool =
  Metrics.Counter.incr t.ins.c_requests;
  let error e =
    Metrics.Counter.incr t.ins.c_errors;
    (Protocol.Error e, false)
  in
  match req with
  | Protocol.Submit size -> (
      match Cluster.submit t.cluster ~size with
      | Ok sub ->
          let id =
            match sub with Cluster.Placed (id, _) | Cluster.Queued id -> id
          in
          t.seq <- t.seq + 1;
          Wal.append_submit t.wal ~seq:t.seq ~id ~size;
          after_mutation t;
          ( (match sub with
            | Cluster.Placed (id, p) ->
                Protocol.Placed (id, Protocol.placement_of_core p)
            | Cluster.Queued id -> Protocol.Queued id),
            false )
      | Error e -> error e)
  | Protocol.Finish id -> (
      match Cluster.finish t.cluster id with
      | Ok () ->
          t.seq <- t.seq + 1;
          Wal.append_finish t.wal ~seq:t.seq ~id;
          after_mutation t;
          (Protocol.Finished, false)
      | Error e -> error e)
  | Protocol.Query id ->
      let state =
        match Cluster.placement t.cluster id with
        | Some p -> Protocol.Active (Protocol.placement_of_core p)
        | None ->
            if Cluster.is_queued t.cluster id then Protocol.Queued_task
            else Protocol.Unknown
      in
      (Protocol.State (id, state), false)
  | Protocol.Stats -> (Protocol.Stats_reply (Cluster.stats t.cluster), false)
  | Protocol.Loads -> (Protocol.Loads_reply (Cluster.leaf_loads t.cluster), false)
  | Protocol.Metrics -> (Protocol.Metrics_reply (metrics t), false)
  | Protocol.Snapshot -> (
      match snapshot_now t with
      | Ok path -> (Protocol.Snapshot_reply path, false)
      | Error e -> error e)
  | Protocol.Ping -> (Protocol.Pong, false)
  | Protocol.Health ->
      (* A serving pmpd has by construction recovered and passed the
         oracle — {!create} refuses otherwise — so [ready] is [true]
         whenever this reply exists at all. *)
      ( Protocol.Health_reply
          {
            Protocol.ready = true;
            uptime_ms =
              int_of_float ((Unix.gettimeofday () -. t.started) *. 1000.0);
            seq = max 0 t.seq;
            recovered_ops = t.recovered_ops;
          },
        false )
  | Protocol.Shutdown -> (Protocol.Bye, true)

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
      if stop then `Stop (op_index req, ok, wire)
      else `Reply (op_index req, ok, wire)

(* ------------------------------------------------------------------ *)
(* the wire handler                                                    *)

(* Frame [t.scratch] (one encoded response payload) into [out]. *)
let scratch_frame t out =
  Netbuf.add_char out (Char.chr Wire.request_magic);
  Netbuf.add_char out (Char.chr Wire.version);
  Netbuf.add_varint out (Buffer.length t.scratch);
  Netbuf.add_buffer out t.scratch

let reply_error_binary t out e =
  Metrics.Counter.incr t.ins.c_errors;
  Buffer.clear t.scratch;
  Buffer.add_char t.scratch '\000';
  Wire.add_varint t.scratch (String.length e);
  Buffer.add_string t.scratch e;
  scratch_frame t out

let add_scratch_placement s (p : Pmp_core.Placement.t) =
  Wire.add_varint s (Pmp_machine.Submachine.first_leaf p.Pmp_core.Placement.sub);
  Wire.add_varint s (Pmp_machine.Submachine.size p.Pmp_core.Placement.sub);
  Wire.add_varint s p.Pmp_core.Placement.copy

(* Decode and apply one binary request whose payload spans
   [[pos0, limit)] of [b], encoding the response straight into [out].
   Submit, finish, query and stats — the hot opcodes — are dispatched
   inline without building a [Protocol.request], a [Protocol.response]
   or any intermediate string: the only per-request allocations left
   on these paths are the cluster's own. *)
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
                    Wire.add_varint s id;
                    add_scratch_placement s p
                | Cluster.Queued id ->
                    Buffer.add_char s '\002';
                    Wire.add_varint s id);
                scratch_frame t out;
                `Ok
            | Error e -> `Error e
          end
      | 2 (* finish *) ->
          let id = Wire.read_varint b cur limit in
          if cur.Wire.pos <> limit then `Error "trailing bytes in frame"
          else begin
            let td = if t.timed then Unix.gettimeofday () else 0.0 in
            match Cluster.finish t.cluster id with
            | Ok () ->
                let ta = if t.timed then Unix.gettimeofday () else 0.0 in
                t.seq <- t.seq + 1;
                Wal.append_finish t.wal ~seq:t.seq ~id;
                after_mutation t;
                if t.timed then begin
                  let tw = Unix.gettimeofday () in
                  Metrics.Histogram.observe t.ins.h_stage_decode (td -. t.req_t0);
                  Metrics.Histogram.observe t.ins.h_stage_apply (ta -. td);
                  Metrics.Histogram.observe t.ins.h_stage_wal (tw -. ta)
                end;
                Buffer.clear t.scratch;
                Buffer.add_char t.scratch '\003';
                scratch_frame t out;
                `Ok
            | Error e -> `Error e
          end
      | 3 (* query *) ->
          let id = Wire.read_varint b cur limit in
          if cur.Wire.pos <> limit then `Error "trailing bytes in frame"
          else begin
            let td = if t.timed then Unix.gettimeofday () else 0.0 in
            let s = t.scratch in
            Buffer.clear s;
            Buffer.add_char s '\004';
            Wire.add_varint s id;
            (match Cluster.placement t.cluster id with
            | Some p ->
                Buffer.add_char s '\002';
                add_scratch_placement s p
            | None ->
                if Cluster.is_queued t.cluster id then Buffer.add_char s '\001'
                else Buffer.add_char s '\000');
            scratch_frame t out;
            if t.timed then begin
              Metrics.Histogram.observe t.ins.h_stage_decode (td -. t.req_t0);
              Metrics.Histogram.observe t.ins.h_stage_apply
                (Unix.gettimeofday () -. td)
            end;
            `Ok
          end
      | _ (* 4, stats *) ->
          if cur.Wire.pos <> limit then `Error "trailing bytes in frame"
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
            scratch_frame t out;
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
          t.cur_op <- op_index req;
          let resp, stop = handle t req in
          Buffer.clear t.scratch;
          (match rid with
          | None -> Protocol.response_payload t.scratch resp
          | Some rid -> Protocol.response_payload_rid t.scratch ~rid resp);
          scratch_frame t out;
          if stop then `Stop else `Ok
    end
  with
  | r -> r
  | exception Wire.Corrupt e -> `Error e

(* One binary frame from the front of [inbuf], if complete. *)
let handle_binary t inbuf out =
  let avail = Netbuf.length inbuf in
  if avail < 3 then `Incomplete
  else begin
    let b = Netbuf.bytes inbuf in
    let off = Netbuf.offset inbuf in
    let hard = off + avail in
    t.cur.Wire.pos <- off + 2;
    match Wire.read_varint b t.cur hard with
    | exception Wire.Corrupt _ ->
        if hard - (off + 2) >= Wire.max_varint_bytes then `Poison
        else `Incomplete
    | plen ->
        let ppos = t.cur.Wire.pos in
        if plen < 0 || plen > Wire.max_payload then `Poison
        else if ppos + plen > hard then `Incomplete
        else begin
          let limit = ppos + plen in
          if t.timed then t.req_t0 <- Unix.gettimeofday ();
          let opcode = if plen = 0 then 0 else Char.code (Bytes.get b ppos) in
          t.cur_op <- opcode;
          let r =
            if Char.code (Bytes.get b (off + 1)) <> Wire.version then begin
              Metrics.Counter.incr t.ins.c_requests;
              `Error
                (Printf.sprintf "unsupported wire version %d"
                   (Char.code (Bytes.get b (off + 1))))
            end
            else if plen = 0 then begin
              Metrics.Counter.incr t.ins.c_requests;
              `Error "empty frame"
            end
            else dispatch t out b ppos limit
          in
          Netbuf.consume inbuf (limit - off);
          (match r with
          | `Ok ->
              note_request t ~op:t.cur_op ~size:plen ~ok:true;
              `Handled
          | `Error e ->
              reply_error_binary t out e;
              note_request t ~op:t.cur_op ~size:plen ~ok:false;
              `Handled
          | `Stop ->
              note_request t ~op:t.cur_op ~size:plen ~ok:true;
              `Stop)
        end
  end

(* One JSON line from the front of [inbuf], if complete. This is the
   debug path — old clients and humans — so allocation is fine. *)
let handle_json t inbuf out =
  match Netbuf.find_byte inbuf '\n' with
  | None -> `Incomplete
  | Some i ->
      if t.timed then t.req_t0 <- Unix.gettimeofday ();
      let line = Netbuf.sub_string inbuf ~off:0 ~len:i in
      Netbuf.consume inbuf (i + 1);
      let emit r =
        Netbuf.add_string out r;
        Netbuf.add_char out '\n'
      in
      (match handle_line t line with
      | `Reply (op, ok, r) ->
          emit r;
          note_request t ~op ~size:i ~ok;
          `Handled
      | `Stop (op, ok, r) ->
          emit r;
          note_request t ~op ~size:i ~ok;
          `Stop)

(* The {!Loop} handler: drain up to [budget] complete requests from
   [inbuf], dispatching each by its first byte — {!Wire.request_magic}
   opens a binary frame, anything else is a JSON (or garbage) line —
   so both encodings interoperate on one connection. *)
let handle_conn t inbuf out ~budget =
  let handled = ref 0 in
  let verdict = ref None in
  while Option.is_none !verdict && !handled < budget
        && not (Netbuf.is_empty inbuf) do
    let r =
      if Netbuf.get_byte inbuf 0 = Wire.request_magic then
        handle_binary t inbuf out
      else handle_json t inbuf out
    in
    match r with
    | `Handled -> incr handled
    | `Stop ->
        incr handled;
        verdict := Some (`Stop !handled)
    | `Incomplete -> verdict := Some (`Handled !handled)
    | `Poison ->
        (* a garbage length prefix desyncs the stream beyond repair:
           answer with an error and drop whatever else is buffered *)
        Metrics.Counter.incr t.ins.c_requests;
        reply_error_binary t out "malformed frame";
        Netbuf.clear inbuf;
        incr handled;
        verdict := Some (`Handled !handled)
  done;
  match !verdict with Some r -> r | None -> `Handled !handled

let close t =
  (try Wal.sync t.wal with Unix.Unix_error _ | Sys_error _ -> ());
  Wal.close t.wal

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

let serve t ~listeners =
  (* The SIGUSR1 handler only sets a flag: the dump itself runs on the
     loop's own schedule (tick for idle rounds, batch hook for busy
     ones), never from async-signal context. *)
  let check_usr1 () =
    if Atomic.exchange t.usr1 false then ignore (dump_recorder t)
  in
  (try
     Loop.run ~config:t.config.loop
       ~on_accept:(fun () -> Metrics.Counter.incr t.ins.c_connections)
       ~on_batch:(fun n ->
         check_usr1 ();
         Metrics.Counter.incr t.ins.c_batches;
         Metrics.Histogram.observe t.ins.h_batch_size (float_of_int n))
       ~on_commit:(fun () -> commit t)
       ~on_usr1:(fun () -> Atomic.set t.usr1 true)
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
       ~listeners ~handle:(handle_conn t) ()
   with e ->
     (* any abnormal exit — crash injection included — leaves the
        black box behind *)
     (try ignore (dump_recorder t) with Sys_error _ -> ());
     raise e);
  close t
