(* Bench-regression harness: a fixed-seed suite over machine sizes and
   allocators whose output is compared against a committed baseline.

     dune exec bench/regress.exe                      # run, write BENCH_regress.json
     dune exec bench/regress.exe -- --compare BENCH_baseline.json --tolerance 0.25
     dune exec bench/regress.exe -- --update-baseline # refresh BENCH_baseline.json

   Two classes of check:

   - deterministic outputs (event counts, peak load, L*, competitive
     ratio) must match the baseline bit-for-bit — any drift means the
     allocation behaviour changed, which a perf PR must not do;
   - cost outputs are compared with a tolerance. The hard gates are
     allocations (GC words per event and per run set-up, per PE at
     daemon start-up, and none at all per load-index add;
     deterministic up to OCaml version) and
     the scan-vs-index per-event speedup measured in-process on the
     same trace (both sides see the same host, so the ratio
     transports across machines). Wall-clock — raw and
     calibration-normalised ns/event — is measured best-of-k,
     re-measured on a miss, and then still only warns unless
     [--strict-time], because shared CI hosts see sustained load
     bursts that no smoothing absorbs. *)

module Machine = Pmp_machine.Machine
module Realloc = Pmp_core.Realloc
module Engine = Pmp_sim.Engine
module Json = Pmp_util.Json
module Builders = Pmp_cli.Builders
module Dump = Pmp_telemetry.Metrics.Dump

let seed = 42
let default_tolerance = 0.25
(* recorded at 100-145x on a 2-vCPU Xeon host; 15-27x before index
   adds recombined only the slots they change *)
let min_speedup = 25.0
let min_service_speedup = 5.0

(* group commit must batch: the binary+group service run writes more
   than this many WAL records per fsync (recorded ~16 on a 2-vCPU Xeon
   host), and json+always exactly one. Both ratios come from counters
   the daemon keeps (pmpd_wal_group_size_sum / pmpd_fsync_total), not
   from a clock, so they gate hard. *)
let min_group_records_per_fsync = 2.0

(* the multicore floor: at --domains=4 the sharded event loop must move
   at least this many times the single-domain throughput on the same
   workload (binary+group, four connections either way). Only enforced
   on hosts that can actually run four domains in parallel; elsewhere
   the probe records itself as skipped. PMP_MULTICORE_GATE=off skips
   explicitly (e.g. a loaded CI box with cores but no isolation). *)
let min_multicore_speedup = 2.0

(* observability must stay near-free: the fully instrumented service
   (per-stage latency histograms + flight recorder) may cost at most
   this factor over the same matrix point with telemetry disabled *)
let max_observability_overhead = 1.05

(* the federation ceiling: a request through the router pays one extra
   socket hop, but the router forwards each client batch as one
   upstream flush per shard, so the shards' group commits amortise as
   they do direct. Recorded at 1.7x the direct binary+group point on a
   2-vCPU Xeon host (three runs); the ceiling leaves room for a busy
   host *)
let max_federation_overhead = 4.0

(* the pipelining floor: the router forwards each client batch as one
   upstream flush per touched shard, so requests routed per shard
   flush stay well above one under a windowed client — a router that
   forwards request by request sits at exactly one. A count ratio, not
   a clock, so it gates hard. *)
let min_requests_per_upstream_batch = 2.0

(* the audit ceiling: the structural oracle replaying a greedy churn
   at N=4096 compares only the placements each event wrote, so its
   allocation per event is O(1 + moves) and independent of the active
   set. Comparing the whole placement table per event costs O(active)
   words (~3.4k on this trace) and fails the gate. GC words are
   deterministic, so this gates hard. *)
let max_audit_words_per_event = 250.0

(* the start-up ceiling: [Server.create] on a fresh directory builds
   one cluster, whose placement table indexes its own loads, and
   nothing else of size N: a fresh directory recovers nothing, so no
   round trip re-imports it. Recorded 6.4 words/PE at N=16384; one
   load index is ~6 words/PE, so a second index — in the cluster, an
   observer built for an empty WAL tail, or a round trip's re-import
   with its two leaf-load arrays — crosses the ceiling. GC words are
   deterministic, so this gates hard. *)
let startup_n = 16_384
let max_startup_words_per_pe = 8.0

(* the same seeded churn as Workloads.churn in the experiment harness
   (dune forbids sharing a module across two executables in one
   directory, and the suite's workload must stay pinned either way) *)
let churn ?(steps = 4_000) ?(target_util = 1.5) n =
  let levels = Pmp_util.Pow2.ilog2 n in
  Pmp_workload.Generators.churn
    (Pmp_prng.Splitmix64.create seed)
    ~machine_size:n ~steps ~target_util
    ~max_order:(max 0 (levels - 1))
    ~size_bias:0.6

(* GC words allocated so far: minor allocations plus direct-to-major
   allocations. major_words alone also counts promotions, which depend
   on GC timing and are not reproducible. Under OCaml 5.1
   [Gc.quick_stat] credits words only at the next collection (so a
   short span's allocations, and arrays allocated straight into the
   major heap since the last slice, went uncounted) and [Gc.counters]
   scales the minor heap's uncollected part by 1/8; [Gc.minor_words]
   is exact, and [Gc.counters]' major and promoted words are *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* ns per iteration of a fixed integer loop, used to normalise wall
   times across hosts: a 2x-slower machine scales both the calibration
   and the measured runs, leaving ns/event / calib roughly invariant *)
let calibrate () =
  let iters = 20_000_000 in
  let t0 = Unix.gettimeofday () in
  let x = ref 0x1E3779B97F4A7C15 in
  for _ = 1 to iters do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  ignore (Sys.opaque_identity !x);
  dt *. 1e9 /. float_of_int iters

(* one suite case: allocator name (as Builders understands it) over a
   churn trace on an N-leaf machine *)
type case = { alloc : string; n : int; steps : int }

let suite =
  let allocs = [ "greedy"; "copies"; "optimal"; "periodic"; "hybrid"; "randomized" ] in
  List.concat_map
    (fun n ->
      List.filter_map
        (fun alloc ->
          (* optimal repacks every active task on each arrival; at
             N=65536 that is minutes of work for no extra signal, so
             the suite drops it there (announced in the JSON) *)
          if alloc = "optimal" && n = 65536 then None
          else
            let steps = match n with 256 -> 2_000 | 4096 -> 2_000 | _ -> 1_000 in
            Some { alloc; n; steps })
        allocs)
    [ 256; 4096; 65536 ]

let dropped = [ "optimal/N=65536 (quadratic repack, no extra signal)" ]

let case_key c = Printf.sprintf "%s/N=%d" c.alloc c.n

let build_alloc ?backend name machine =
  match Builders.allocator ?backend name machine ~d:(Realloc.Budget 2) ~seed with
  | Ok a -> a
  | Error (`Msg m) -> failwith m

(* best-of-k wall time: the minimum is far less sensitive to scheduler
   noise than any single run, and an optimisation regression shifts
   the minimum just the same. Reps are adaptive — individual runs are
   milliseconds, so each case repeats until it has accumulated enough
   measured time for the minimum to be trustworthy *)
let max_reps = 200
let min_measured_s = 0.25

(* Each rep counts the words of building the allocator plus running
   the engine. The same with an empty sequence is the run's set-up —
   the O(N) load views of the allocator's table (load-aware allocators
   only; a copy stack's table never builds one) and of the engine's
   Mirror, and the final-load arrays — reported as [setup_words] and
   taken out of [words_per_event], which is then the event loop's own
   cost. *)
let run_case calib c =
  let machine = Machine.create c.n in
  let seq = churn ~steps:c.steps c.n in
  let run seq =
    (* a clean heap per rep so one run's garbage cannot perturb the
       next one's timings or promotion counts *)
    Gc.full_major ();
    let w0 = alloc_words () in
    let alloc = build_alloc c.alloc machine in
    let t0 = Unix.gettimeofday () in
    let r = Engine.run alloc seq in
    let wall = Unix.gettimeofday () -. t0 in
    (r, wall, alloc_words () -. w0)
  in
  let _, _, setup_words = run (Pmp_workload.Sequence.of_events_exn []) in
  let one () = run seq in
  let r, wall, words = one () in
  let best = ref wall and total = ref wall and n = ref 1 in
  while !n < max_reps && !total < min_measured_s do
    let _, w, _ = one () in
    if w < !best then best := w;
    total := !total +. w;
    incr n
  done;
  let wall = !best in
  let events = float_of_int (max 1 r.Engine.events) in
  let ns_per_event = wall *. 1e9 /. events in
  ( case_key c,
    Json.Obj
      [
        ("allocator", Json.Str c.alloc);
        ("machine_size", Json.Num (float_of_int c.n));
        ("events", Json.Num (float_of_int r.Engine.events));
        ("max_load", Json.Num (float_of_int r.Engine.max_load));
        ("optimal_load", Json.Num (float_of_int r.Engine.optimal_load));
        ("ratio", Json.Num r.Engine.ratio);
        ("max_ratio_over_time", Json.Num (Engine.max_ratio_over_time r));
        ("setup_words", Json.Num setup_words);
        ( "words_per_event",
          Json.Num (Float.round ((words -. setup_words) /. events)) );
        ("ns_per_event", Json.Num (Float.round ns_per_event));
        ("norm_ns_per_event", Json.Num (ns_per_event /. calib));
        ("events_per_second", Json.Num (Float.round (events /. wall)));
      ] )

(* replay one trace through greedy twice — once on the O(N) scan
   backend, once on the O(log N) index — and report the per-event
   speedup. Measured in-process on the same trace and host, so the
   ratio is portable; this is the acceptance gate for the index. *)
let speedup_probe () =
  let n = 65536 in
  let steps = 1_000 in
  let machine = Machine.create n in
  let seq = churn ~steps n in
  let events = Pmp_workload.Sequence.events seq in
  (* drive the allocator directly, no engine in the way: this times
     exactly the code the index replaced (the per-arrival
     min-of-max-window query plus the load bookkeeping) *)
  let time backend =
    let alloc = build_alloc ~backend "greedy" machine in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun (ev : Pmp_workload.Event.t) ->
        match ev with
        | Arrive task ->
            let resp = alloc.Pmp_core.Allocator.assign task in
            ignore (Sys.opaque_identity resp)
        | Depart id -> alloc.Pmp_core.Allocator.remove id)
      events;
    let wall = Unix.gettimeofday () -. t0 in
    let final =
      List.sort compare
        (List.map
           (fun ((t : Pmp_workload.Task.t), (p : Pmp_core.Placement.t)) ->
             (t.Pmp_workload.Task.id, p.Pmp_core.Placement.sub,
              p.Pmp_core.Placement.copy))
           (Pmp_core.Allocator.placements alloc))
    in
    (wall *. 1e9 /. float_of_int (max 1 (Array.length events)), final)
  in
  let best backend =
    let ns, final = time backend in
    let ns = ref ns and n = ref 1 in
    while !n < 3 do
      let v, _ = time backend in
      if v < !ns then ns := v;
      incr n
    done;
    (!ns, final)
  in
  (* index first so the scan run cannot look better via a warm cache *)
  let index_ns, final_index = best Pmp_index.Load_view.Indexed in
  let scan_ns, final_scan = best Pmp_index.Load_view.Scan in
  if final_index <> final_scan then
    failwith "speedup probe: scan and index backends place tasks differently";
  let speedup = scan_ns /. index_ns in
  Json.Obj
    [
      ("case", Json.Str "greedy/N=65536 scan vs index");
      ("events", Json.Num (float_of_int (Array.length events)));
      ("scan_ns_per_event", Json.Num (Float.round scan_ns));
      ("index_ns_per_event", Json.Num (Float.round index_ns));
      ("speedup", Json.Num speedup);
      ("min_required", Json.Num min_speedup);
    ]

(* The audit probe: [Oracle.run structural_only] over a fixed churn,
   the per-event loop the daemon's recovery audit runs over the WAL
   tail it replays. *)
let audit_probe () =
  let n = 4096 in
  let machine = Machine.create n in
  let seq = churn ~steps:14_000 n in
  let make () = build_alloc "greedy" machine in
  Gc.full_major ();
  let w0 = alloc_words () in
  let t0 = Unix.gettimeofday () in
  (match Pmp_oracle.Oracle.run Pmp_oracle.Oracle.structural_only ~make seq with
  | Ok () -> ()
  | Error v ->
      failwith
        (Format.asprintf "audit probe: %a" Pmp_oracle.Oracle.pp_violation v));
  let wall = Unix.gettimeofday () -. t0 in
  let words = alloc_words () -. w0 in
  let events = float_of_int (Pmp_workload.Sequence.length seq) in
  Json.Obj
    [
      ("case", Json.Str "oracle structural_only, greedy/N=4096 churn");
      ("events", Json.Num events);
      ("words_per_event", Json.Num (Float.round (words /. events)));
      ("ns_per_event", Json.Num (Float.round (wall *. 1e9 /. events)));
      ("max_words_per_event", Json.Num max_audit_words_per_event);
    ]

(* The start-up probe: GC words [Server.create] allocates per PE on a
   fresh directory, the O(N) state a daemon builds before its first
   request. *)
let startup_probe () =
  let module Server = Pmp_server.Server in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmp-regress-startup-%d" (Unix.getpid ()))
  in
  ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ]));
  let config =
    Server.default_config ~machine_size:startup_n
      ~policy:Pmp_cluster.Cluster.Greedy ~dir
  in
  Gc.full_major ();
  let w0 = alloc_words () in
  let s =
    match Server.create config with
    | Ok s -> s
    | Error e -> failwith ("startup probe: " ^ e)
  in
  let words = alloc_words () -. w0 in
  Server.close s;
  ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ]));
  Json.Obj
    [
      ( "case",
        Json.Str
          (Printf.sprintf "Server.create, greedy N=%d, fresh directory" startup_n)
      );
      ("machine_size", Json.Num (float_of_int startup_n));
      ( "words_per_pe",
        Json.Num (Float.round (words /. float_of_int startup_n *. 10.0) /. 10.0)
      );
      ("max_words_per_pe", Json.Num max_startup_words_per_pe);
    ]

(* The state gate: a daemon's durable state and the work of its
   recovery are O(live tasks), not O(history). A stationary churn —
   1000 live size-4 tasks on N=4096 (load 1 throughout), then each
   finish of the oldest task followed by a fresh submit — runs through
   an in-process greedy [Server] at the default snapshot interval, to
   [state_runs] mutations. Snapshot bytes per live task and the WAL
   records a restart replays are counts, so the gate is hard: neither
   may grow from the shorter run to the longer one. *)
let state_runs = [ 50_000; 200_000 ]
let state_live = 1_000

let state_run mutations =
  let module Server = Pmp_server.Server in
  let module Protocol = Pmp_server.Protocol in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmp-regress-state-%d-%d" (Unix.getpid ()) mutations)
  in
  ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ]));
  let config =
    {
      (Server.default_config ~machine_size:4096 ~policy:Pmp_cluster.Cluster.Greedy
         ~dir)
      with
      Server.fsync_policy = Pmp_server.Wal.Never;
    }
  in
  let get = function Ok v -> v | Error e -> failwith ("state probe: " ^ e) in
  let s = get (Server.create config) in
  let oldest = ref 0 in
  for i = 1 to mutations do
    let req =
      if i <= state_live || (i - state_live) land 1 = 0 then Protocol.Submit 4
      else begin
        incr oldest;
        Protocol.Finish (!oldest - 1)
      end
    in
    ignore (Server.handle s req);
    if i land 63 = 0 then Server.commit s
  done;
  Server.commit s;
  let live = (Pmp_cluster.Cluster.stats (Server.cluster s)).Pmp_cluster.Cluster.active_now in
  Server.close s;
  let bytes =
    match Pmp_server.Snapshot.latest ~dir with
    | Some (path, _) -> (Unix.stat path).Unix.st_size
    | None -> failwith "state probe: no snapshot written"
  in
  let t0 = Unix.gettimeofday () in
  let r = get (Server.create config) in
  let recover_s = Unix.gettimeofday () -. t0 in
  let replayed = Server.recovered_ops r in
  Server.close r;
  ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ]));
  ( string_of_int mutations,
    Json.Obj
      [
        ("mutations", Json.Num (float_of_int mutations));
        ("live_tasks", Json.Num (float_of_int live));
        ("snapshot_bytes", Json.Num (float_of_int bytes));
        ( "snapshot_bytes_per_live_task",
          Json.Num (float_of_int bytes /. float_of_int live) );
        ("wal_records_replayed", Json.Num (float_of_int replayed));
        ("recover_ms", Json.Num (Float.round (recover_s *. 1e4) /. 10.0));
      ] )

let state_probe () =
  Json.Obj
    [
      ( "case",
        Json.Str
          "stationary churn, greedy N=4096, 1000 live size-4 tasks, snapshot \
           every 1024" );
      ("runs", Json.Obj (List.map state_run state_runs));
    ]

(* The load-index probe, the first row of the cost ledger: the index's
   two operations alone, at three machine sizes. The pinned churn is
   played once through greedy's rule (each arrival picks the leftmost
   min-of-max window of its order and adds 1 there; a departure
   subtracts it again) to fix the trace of adds, which is then replayed
   on fresh indexes: adds alone, and with each arrival's pick (repeated
   [pick_reps] times, so it is not lost in the noise of the adds) before
   its add. GC words are deterministic and an add must allocate none;
   ns is best-of-k and advisory, a pick's being the difference of the
   two loops. *)
let load_index_sizes = [ 256; 4096; 65536 ]
let pick_reps = 8

let load_index_probe calib =
  let module Ix = Pmp_index.Load_index in
  let row n =
    let machine = Machine.create n in
    let events = Pmp_workload.Sequence.events (churn n) in
    let k = Array.length events in
    let subs = Array.make k (Pmp_machine.Submachine.make machine ~order:0 ~index:0)
    and deltas = Array.make k 0
    and pick_order = Array.make k (-1) in
    let ix = Ix.create machine in
    let placed = Hashtbl.create 64 in
    Array.iteri
      (fun i (ev : Pmp_workload.Event.t) ->
        match ev with
        | Arrive task ->
            let order = Pmp_workload.Task.order task in
            let _, sub = Ix.min_load_subtree ix ~order in
            Hashtbl.replace placed task.Pmp_workload.Task.id sub;
            subs.(i) <- sub;
            deltas.(i) <- 1;
            pick_order.(i) <- order;
            Ix.range_add ix sub 1
        | Depart id ->
            subs.(i) <- Hashtbl.find placed id;
            deltas.(i) <- -1;
            Ix.range_add ix subs.(i) (-1))
      events;
    let adds = float_of_int k
    and picks =
      float_of_int
        (pick_reps
        * Array.fold_left (fun a o -> if o >= 0 then a + 1 else a) 0 pick_order)
    in
    let replay ~picks ix =
      for i = 0 to k - 1 do
        if picks && pick_order.(i) >= 0 then
          for _ = 1 to pick_reps do
            ignore
              (Sys.opaque_identity (Ix.min_load_subtree ix ~order:pick_order.(i)))
          done;
        Ix.range_add ix subs.(i) deltas.(i)
      done
    in
    (* words of [f ix] net of what the two readings allocate *)
    let words f =
      let ix = Ix.create machine in
      let w0 = alloc_words () in
      f ix;
      let w = alloc_words () -. w0 in
      let w0 = alloc_words () in
      w -. (alloc_words () -. w0)
    in
    let best_ns f =
      let best = ref infinity in
      for _ = 1 to 15 do
        let ix = Ix.create machine in
        let t0 = Unix.gettimeofday () in
        f ix;
        best := Float.min !best (Unix.gettimeofday () -. t0)
      done;
      !best *. 1e9
    in
    let add_words = words (replay ~picks:false)
    and both_words = words (replay ~picks:true) in
    let add_ns = best_ns (replay ~picks:false)
    and both_ns = best_ns (replay ~picks:true) in
    let add_ns = add_ns /. adds in
    let pick_ns = Float.max 0.0 ((both_ns -. (add_ns *. adds)) /. picks) in
    ( Printf.sprintf "N=%d" n,
      Json.Obj
        [
          ("adds", Json.Num adds);
          ("picks", Json.Num picks);
          ("words_per_add", Json.Num (add_words /. adds));
          ("words_per_pick", Json.Num ((both_words -. add_words) /. picks));
          ("ns_per_add", Json.Num (Float.round add_ns));
          ("ns_per_pick", Json.Num (Float.round pick_ns));
          ("norm_ns_per_add", Json.Num (add_ns /. calib));
        ] )
  in
  Json.Obj
    [
      ("case", Json.Str "Load_index add/pick over the pinned churn");
      ("sizes", Json.Obj (List.map row load_index_sizes));
      ("max_words_per_add", Json.Num 0.0);
    ]

(* The service gate: a live pmpd on a Unix socket, driven through the
   shared Loadgen workload. Both sides of the ratio run on the same
   host, so binary+group vs json+fsync-per-append transports across
   machines like the scan-vs-index speedup does; the allocation budget
   of the read fast path is deterministic like words_per_event, and
   each side's WAL records per fsync is read from the daemon's own
   metrics. Raw service ns/request is recorded calibration-normalised
   and gated as a (warn-only by default) timing field. *)
let service_probe calib =
  let module L = Pmp_server.Loadgen in
  let run label ?(latency_profile = false) ?recorder_size ~proto ~fsync_policy
      ~requests () =
    match
      L.bench ~proto ~fsync_policy ~latency_profile ?recorder_size ~requests ()
    with
    | Ok (o, _) when o.L.errors > 0 ->
        failwith
          (Printf.sprintf "service probe (%s): %d error responses" label
             o.L.errors)
    | Ok (o, dump) -> (
        match
          ( Dump.value dump "pmpd_wal_group_size_sum",
            Dump.value dump "pmpd_fsync_total" )
        with
        | Some records, Some fsyncs -> (o, records /. fsyncs)
        | _ ->
            failwith
              (Printf.sprintf
                 "service probe (%s): metrics lack the WAL counters" label))
    | Error e -> failwith (Printf.sprintf "service probe (%s): %s" label e)
  in
  (* best-of-2 for the two sides of the overhead ratio: a 5%-scale
     comparison needs more smoothing than the 5x-scale speedup floor *)
  let best_ns label ?latency_profile ?recorder_size ~proto ~fsync_policy
      ~requests () =
    let ((o1, _) as r1) =
      run label ?latency_profile ?recorder_size ~proto ~fsync_policy ~requests ()
    in
    let ((o2, _) as r2) =
      run label ?latency_profile ?recorder_size ~proto ~fsync_policy ~requests ()
    in
    if L.ns_per_request o1 <= L.ns_per_request o2 then r1 else r2
  in
  let fast, fast_per_fsync =
    best_ns "binary+group" ~proto:Pmp_server.Client.Binary
      ~fsync_policy:Pmp_server.Wal.Group ~requests:30_000 ()
  in
  (* the same matrix point with every observability feature on: stage
     and per-opcode histograms plus a live flight recorder *)
  let instrumented, _ =
    best_ns "binary+group+obs" ~latency_profile:true ~recorder_size:1024
      ~proto:Pmp_server.Client.Binary ~fsync_policy:Pmp_server.Wal.Group
      ~requests:30_000 ()
  in
  (* the seed's configuration: JSON lines on the wire, fsync on every
     append — a real fsync per mutation, so a tenth of the requests
     suffices *)
  let slow, slow_per_fsync =
    run "json+always" ~proto:Pmp_server.Client.Json
      ~fsync_policy:Pmp_server.Wal.Always ~requests:3_000 ()
  in
  let words =
    match L.words_per_request () with
    | Ok w -> w
    | Error e -> failwith ("service probe (words): " ^ e)
  in
  let fast_ns = L.ns_per_request fast
  and slow_ns = L.ns_per_request slow
  and instr_ns = L.ns_per_request instrumented in
  Json.Obj
    [
      ("case", Json.Str "service: binary+group vs json+always (unix socket)");
      ("fast_requests", Json.Num (float_of_int fast.L.requests));
      ("fast_mutations", Json.Num (float_of_int fast.L.mutations));
      ("slow_requests", Json.Num (float_of_int slow.L.requests));
      ("slow_mutations", Json.Num (float_of_int slow.L.mutations));
      ("binary_group_ns_per_request", Json.Num (Float.round fast_ns));
      ("json_always_ns_per_request", Json.Num (Float.round slow_ns));
      ("instrumented_ns_per_request", Json.Num (Float.round instr_ns));
      ("observability_overhead", Json.Num (instr_ns /. fast_ns));
      ("max_observability_overhead", Json.Num max_observability_overhead);
      ("norm_ns_per_request", Json.Num (fast_ns /. calib));
      ( "events_per_second",
        Json.Num (Float.round (L.requests_per_sec fast)) );
      ("speedup", Json.Num (slow_ns /. fast_ns));
      ("min_required", Json.Num min_service_speedup);
      ("words_per_request", Json.Num words);
      ("binary_group_records_per_fsync", Json.Num fast_per_fsync);
      ("json_always_records_per_fsync", Json.Num slow_per_fsync);
      ("min_group_records_per_fsync", Json.Num min_group_records_per_fsync);
    ]

(* The multicore gate: the same Loadgen workload, four connections,
   against a single-domain and a four-shard daemon. Wall-clock on both
   sides of the ratio, same host, so it transports like the other
   speedups — but unlike them it needs real parallel hardware, so the
   probe self-skips (recording why) when the host cannot run four
   domains at once or when PMP_MULTICORE_GATE=off. *)
let multicore_probe () =
  let module L = Pmp_server.Loadgen in
  let skip reason =
    Json.Obj
      [
        ("case", Json.Str "multicore: domains=4 vs domains=1 (4 conns)");
        ("skipped", Json.Bool true);
        ("reason", Json.Str reason);
        ("min_required", Json.Num min_multicore_speedup);
      ]
  in
  match Sys.getenv_opt "PMP_MULTICORE_GATE" with
  | Some "off" -> skip "PMP_MULTICORE_GATE=off"
  | _ ->
      let cores = Domain.recommended_domain_count () in
      if cores < 4 then
        skip
          (Printf.sprintf
             "host cannot run 4 domains in parallel \
              (recommended_domain_count=%d)"
             cores)
      else
        let run ~domains () =
          match
            L.bench ~proto:Pmp_server.Client.Binary
              ~fsync_policy:Pmp_server.Wal.Group ~domains ~conns:4
              ~requests:30_000 ()
          with
          | Ok (o, _) -> o
          | Error e ->
              failwith (Printf.sprintf "multicore probe (domains=%d): %s" domains e)
        in
        let best ~domains =
          let o1 = run ~domains () and o2 = run ~domains () in
          if L.ns_per_request o1 <= L.ns_per_request o2 then o1 else o2
        in
        let d1 = best ~domains:1 and d4 = best ~domains:4 in
        let d1_ns = L.ns_per_request d1 and d4_ns = L.ns_per_request d4 in
        Json.Obj
          [
            ("case", Json.Str "multicore: domains=4 vs domains=1 (4 conns)");
            ("skipped", Json.Bool false);
            ("dom1_ns_per_request", Json.Num (Float.round d1_ns));
            ("dom4_ns_per_request", Json.Num (Float.round d4_ns));
            ( "dom1_requests_per_sec",
              Json.Num (Float.round (L.requests_per_sec d1)) );
            ( "dom4_requests_per_sec",
              Json.Num (Float.round (L.requests_per_sec d4)) );
            ("speedup", Json.Num (d1_ns /. d4_ns));
            ("min_required", Json.Num min_multicore_speedup);
          ]

(* The federation gate is double, like the scenario gate: the routing
   core's verdict on a scripted workload — run through Sim, which is
   Route, the code the socket router runs, over in-process clusters —
   is deterministic and pinned byte-for-byte against the baseline, and
   the live stack (one router in front of three shard daemons, every
   hop binary+group over Unix sockets) must stay under an absolute
   per-request overhead ceiling vs the direct service point measured
   on the same host. *)
let federation_probe calib =
  let module L = Pmp_server.Loadgen in
  let module Sim = Pmp_federation.Sim in
  let module Rebalance = Pmp_federation.Rebalance in
  let module Server = Pmp_server.Server in
  let module Router = Pmp_federation.Router in
  let module Client = Pmp_server.Client in
  let module Protocol = Pmp_server.Protocol in
  (* deterministic golden: 3 shards of 64 PEs, 4 tenants quota-capped
     at half a shard each, an over-eager rebalancer every 50 ops *)
  let machine_size = 64 in
  let ops = Sim.script ~seed ~ops:2_000 ~machine_size ~tenants:4 in
  let sim =
    match
      Sim.run ~shards:3 ~machine_size ~tenant_quota:32
        ~rebalance:({ Rebalance.default_config with threshold = 1 }, 50)
        ~ops ()
    with
    | Ok r -> r
    | Error e -> failwith ("federation probe (sim): " ^ e)
  in
  let stats_json (st : Pmp_cluster.Cluster.stats) =
    Json.Obj
      [
        ("submitted", Json.Num (float_of_int st.Pmp_cluster.Cluster.submitted));
        ("completed", Json.Num (float_of_int st.Pmp_cluster.Cluster.completed));
        ("queued_now", Json.Num (float_of_int st.Pmp_cluster.Cluster.queued_now));
        ("active_now", Json.Num (float_of_int st.Pmp_cluster.Cluster.active_now));
        ( "active_size",
          Json.Num (float_of_int st.Pmp_cluster.Cluster.active_size) );
        ("max_load", Json.Num (float_of_int st.Pmp_cluster.Cluster.max_load));
        ("peak_load", Json.Num (float_of_int st.Pmp_cluster.Cluster.peak_load));
      ]
  in
  let golden =
    Json.Obj
      [
        ( "routed",
          Json.Arr
            (Array.to_list
               (Array.map (fun n -> Json.Num (float_of_int n)) sim.Sim.routed))
        );
        ("rejects", Json.Num (float_of_int sim.Sim.rejects));
        ("rebalanced", Json.Num (float_of_int sim.Sim.rebalanced));
        ( "rebalanced_bytes",
          Json.Num (float_of_int sim.Sim.rebalanced_bytes) );
        ( "shard_stats",
          Json.Arr (Array.to_list (Array.map stats_json sim.Sim.stats)) );
      ]
  in
  (* live overhead: the same Loadgen workload through a real router
     over three real shard daemons, vs the direct binary+group point *)
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
    | _ -> Unix.unlink path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  let run_federated ~requests =
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "pmp-regress-fed-%d" (Unix.getpid ()))
    in
    rm_rf dir;
    Unix.mkdir dir 0o755;
    let start_shard k =
      let sdir = Filename.concat dir (Printf.sprintf "shard-%d" k) in
      let config =
        {
          (Server.default_config ~machine_size:256
             ~policy:Pmp_cluster.Cluster.Greedy ~dir:sdir)
          with
          Server.snapshot_every = 0;
        }
      in
      let server = Result.get_ok (Server.create config) in
      let path = Filename.concat sdir "pmp.sock" in
      let listener = Server.listen_unix path in
      ( path,
        Domain.spawn (fun () -> Server.serve server ~listeners:[ listener ]) )
    in
    let shard_list = List.init 3 start_shard in
    let sockets = Array.of_list (List.map fst shard_list) in
    let router =
      match
        Router.create
          {
            (Router.default_config ~sockets ~dir) with
            poll_interval = 0.05;
            shutdown_shards = true;
          }
      with
      | Ok r -> r
      | Error e -> failwith ("federation probe (router): " ^ e)
    in
    let fed_path = Filename.concat dir "fed.sock" in
    let fed_listener = Server.listen_unix fed_path in
    let rdom =
      Domain.spawn (fun () -> Router.serve router ~listeners:[ fed_listener ])
    in
    let result =
      match Client.connect_unix ~proto:Client.Binary fed_path with
      | Error e -> Error e
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let gen = L.make_gen ~seed:0xB00 ~machine_size:256 in
              match L.drive c gen ~requests ~window:32 ~rids:true () with
              | Error e -> Error e
              | Ok outcome -> (
                  let counters = Client.metrics c in
                  (match Client.request c Protocol.Shutdown with
                  | Ok _ | Error _ -> ());
                  match counters with
                  | Ok dump -> (
                      match
                        ( Dump.value dump "fed_requests_total",
                          Dump.value dump "fed_upstream_batches_total" )
                      with
                      | Some reqs, Some batches when batches > 0.0 ->
                          Ok (outcome, reqs /. batches)
                      | _ -> Error "router metrics lack the batch counters")
                  | Error e -> Error e))
    in
    Domain.join rdom;
    List.iter (fun (_, d) -> Domain.join d) shard_list;
    rm_rf dir;
    match result with
    | Ok o -> o
    | Error e -> failwith ("federation probe (live): " ^ e)
  in
  let direct =
    match
      L.bench ~proto:Client.Binary ~fsync_policy:Pmp_server.Wal.Group
        ~requests:10_000 ()
    with
    | Ok (o, _) -> o
    | Error e -> failwith ("federation probe (direct): " ^ e)
  in
  let fed, per_batch = run_federated ~requests:10_000 in
  let direct_ns = L.ns_per_request direct
  and fed_ns = L.ns_per_request fed in
  Json.Obj
    [
      ( "case",
        Json.Str "federation: router x 3 shards vs direct (binary+group)" );
      ("golden", golden);
      ("fed_requests", Json.Num (float_of_int fed.L.requests));
      ("fed_errors", Json.Num (float_of_int fed.L.errors));
      ("fed_ns_per_request", Json.Num (Float.round fed_ns));
      ("direct_ns_per_request", Json.Num (Float.round direct_ns));
      ( "fed_requests_per_sec",
        Json.Num (Float.round (L.requests_per_sec fed)) );
      ("norm_fed_ns_per_request", Json.Num (fed_ns /. calib));
      ("overhead", Json.Num (fed_ns /. direct_ns));
      ("max_overhead", Json.Num max_federation_overhead);
      ("requests_per_upstream_batch", Json.Num per_batch);
      ( "min_requests_per_upstream_batch",
        Json.Num min_requests_per_upstream_batch );
    ]

(* The production-shaped scenario gate: replay the registry's fast
   subset (pinned seed, per-scenario default machine, greedy, oracle
   armed) and pin each verdict's deterministic projection. Scenario
   compilation and the closed loop are pure functions of the seed, so
   any drift here is an allocation- or simulation-behaviour change —
   gated exactly, like the other deterministic fields. *)
let scenario_verdicts () =
  List.map
    (fun (scn : Pmp_scenario.Scenario.t) ->
      let machine = Machine.of_levels scn.Pmp_scenario.Scenario.default_order in
      let make () =
        match Builders.allocator "greedy" machine ~d:(Realloc.make_budget 2) ~seed with
        | Ok a -> a
        | Error (`Msg e) -> failwith e
      in
      let oracle =
        match Builders.oracle_spec "greedy" machine ~d:(Realloc.make_budget 2) with
        | Ok s -> s
        | Error (`Msg e) -> failwith e
      in
      let verdict, _ = Pmp_scenario.Runner.run ~oracle ~make ~seed scn in
      ( scn.Pmp_scenario.Scenario.name,
        Pmp_scenario.Verdict.golden_json verdict ))
    Pmp_scenario.Registry.fast_subset

let report calib cases speedup audit startup state load_index service
    multicore federation scenarios =
  Json.Obj
    [
      ("suite", Json.Str "pmp bench-regress");
      ("workload", Json.Str "churn");
      ("seed", Json.Num (float_of_int seed));
      ("calibration_ns_per_iter", Json.Num calib);
      ("dropped", Json.Arr (List.map (fun s -> Json.Str s) dropped));
      ("cases", Json.Obj cases);
      ("speedup", speedup);
      ("audit", audit);
      ("startup", startup);
      ("state", state);
      ("load_index", load_index);
      ("service", service);
      ("multicore", multicore);
      ("federation", federation);
      ("scenarios", Json.Obj scenarios);
    ]

(* --- baseline comparison ------------------------------------------ *)

let get_num path j key =
  match Option.bind (Json.member key j) Json.to_float with
  | Some f -> f
  | None -> failwith (Printf.sprintf "%s: missing numeric field %S" path key)

(* fields that must match the baseline exactly: allocation behaviour
   is deterministic under the pinned seed, so any drift is a
   functional change smuggled in as a perf change *)
let exact_fields = [ "events"; "max_load"; "optimal_load"; "ratio" ]

(* fields gated with the tolerance (higher = worse) *)
let toleranced_fields = [ "setup_words"; "words_per_event"; "norm_ns_per_event" ]

(* one comparison failure; [timing] marks the wall-clock-derived
   fields, which the driver may retry once before failing (a transient
   load burst on the host shifts even a best-of-many minimum) *)
type failure = { key : string; msg : string; timing : bool }

let compare_cases ~tolerance ~base_cases ~cur_cases =
  let errors = ref [] in
  let err key timing fmt =
    Printf.ksprintf (fun msg -> errors := { key; msg; timing } :: !errors) fmt
  in
  List.iter
    (fun (key, base) ->
      match List.assoc_opt key cur_cases with
      | None -> err key false "%s: present in baseline but not in this run" key
      | Some cur ->
          List.iter
            (fun f ->
              let b = get_num key base f and c = get_num key cur f in
              if b <> c then
                err key false "%s: %s changed %g -> %g (deterministic field)"
                  key f b c)
            exact_fields;
          List.iter
            (fun f ->
              let b = get_num key base f and c = get_num key cur f in
              if c > b *. (1.0 +. tolerance) then
                err key
                  (f = "norm_ns_per_event")
                  "%s: %s regressed %.1f -> %.1f (>%.0f%% over baseline)" key f
                  b c (tolerance *. 100.0))
            toleranced_fields)
    base_cases;
  List.iter
    (fun (key, _) ->
      if not (List.mem_assoc key base_cases) then
        Printf.printf "note: new case %s not in baseline\n" key)
    cur_cases;
  List.rev !errors

let check_speedup sp =
  let s = get_num "speedup" sp "speedup" in
  if s < min_speedup then
        [
          {
            key = "speedup";
            msg =
              Printf.sprintf
                "scan-vs-index speedup %.1fx is below the %.0fx floor" s
                min_speedup;
            timing = false;
          };
        ]
      else []

(* The audit gates: the absolute ceiling, and no growth over the
   baseline's figure beyond the tolerance. Both deterministic. *)
let check_audit ~tolerance baseline au =
  let w = get_num "audit" au "words_per_event" in
  let fail msg = [ { key = "audit"; msg; timing = false } ] in
  let ceiling =
    if w > max_audit_words_per_event then
      fail
        (Printf.sprintf
           "audit allocates %.0f words/event, above the %.0f ceiling: the \
            accounting check is no longer incremental"
           w max_audit_words_per_event)
    else []
  in
  let drift =
    match Option.bind baseline (Json.member "audit") with
    | None -> []
    | Some base ->
        let b = get_num "audit(baseline)" base "words_per_event" in
        if w > b *. (1.0 +. tolerance) then
          fail
            (Printf.sprintf
               "audit: words_per_event regressed %.0f -> %.0f (>%.0f%% over \
                baseline)"
               b w (tolerance *. 100.0))
        else []
  in
  ceiling @ drift

(* The start-up gate: the absolute ceiling on words per PE. *)
let check_startup su =
  let w = get_num "startup" su "words_per_pe" in
  if w > max_startup_words_per_pe then
    [
      {
        key = "startup";
        msg =
          Printf.sprintf
            "startup: Server.create allocates %.1f words/PE at N=%d, above the \
             %.0f ceiling: it builds more O(N) state than one load index per \
             cluster"
            w startup_n max_startup_words_per_pe;
        timing = false;
      };
    ]
  else []

(* The state gates: from the shorter stationary run to the longer,
   neither the snapshot bytes per live task nor the WAL records
   replayed at recovery may grow. Both are counts. *)
let check_state st =
  let runs =
    match Json.member "runs" st with
    | Some (Json.Obj o) -> List.map snd o
    | _ -> failwith "state: missing runs object"
  in
  let field f j = get_num "state" j f in
  let grows f =
    match runs with
    | short :: (_ :: _ as rest) ->
        let long = List.nth rest (List.length rest - 1) in
        if field f long > field f short then
          [
            {
              key = "state";
              msg =
                Printf.sprintf
                  "state: %s grew from %g at %g mutations to %g at %g: the \
                   daemon's state is no longer O(live tasks)"
                  f (field f short) (field "mutations" short) (field f long)
                  (field "mutations" long);
              timing = false;
            };
          ]
        else []
    | _ -> []
  in
  grows "snapshot_bytes_per_live_task" @ grows "wal_records_replayed"

(* The load-index gates: an add allocates nothing (hard, words are
   deterministic), and its normalised ns stays within the tolerance of
   the baseline's (a timing field: warn-only unless --strict-time). *)
let check_load_index ~tolerance baseline li =
  let sizes j =
    match Json.member "sizes" j with
    | Some (Json.Obj o) -> o
    | _ -> failwith "load_index: missing sizes object"
  in
  let base = Option.bind baseline (Json.member "load_index") in
  List.concat_map
    (fun (key, row) ->
      let fail timing fmt =
        Printf.ksprintf
          (fun msg -> [ { key = "load_index/" ^ key; msg; timing } ])
          fmt
      in
      let w = get_num "load_index" row "words_per_add" in
      let words =
        if w > 0.0 then
          fail false
            "load_index %s: range_add allocates %g words per add; it must \
             allocate none"
            key w
        else []
      in
      let time =
        match Option.bind (Option.map sizes base) (List.assoc_opt key) with
        | None -> []
        | Some b ->
            let b = get_num "load_index(baseline)" b "norm_ns_per_add"
            and c = get_num "load_index" row "norm_ns_per_add" in
            if c > b *. (1.0 +. tolerance) then
              fail true
                "load_index %s: norm_ns_per_add regressed %.1f -> %.1f (>%.0f%% \
                 over baseline)"
                key b c (tolerance *. 100.0)
            else []
      in
      words @ time)
    (sizes li)

(* The service gates: a hard same-host speedup floor (binary+group
   must beat json+always by min_service_speedup regardless of any
   baseline), hard WAL records-per-fsync checks on both sides, a
   toleranced allocation budget vs the baseline, and a warn-only
   normalised wall-time check. *)
let check_service ~tolerance baseline sv =
  let s = get_num "service" sv "speedup" in
  let floor_failures =
    if s < min_service_speedup then
      [
        {
          key = "service";
          msg =
            Printf.sprintf
              "service speedup (binary+group vs json+always) %.1fx is below \
               the %.0fx floor"
              s min_service_speedup;
          timing = false;
        };
      ]
    else []
  in
  (* the observability gate: instrumented vs disabled on the same
     matrix point. Wall-clock derived, so it retries/warns like the
     other timing fields unless --strict-time. *)
  let overhead = get_num "service" sv "observability_overhead" in
  let overhead_failures =
    if overhead > max_observability_overhead then
      [
        {
          key = "service";
          msg =
            Printf.sprintf
              "service: observability overhead %.1f%% exceeds the %.0f%% \
               budget (instrumented vs disabled, binary+group)"
              ((overhead -. 1.0) *. 100.0)
              ((max_observability_overhead -. 1.0) *. 100.0);
          timing = true;
        };
      ]
    else []
  in
  (* group commit, read from the daemon's own counters: counts, not
     clocks, so both gate hard *)
  let fsync_failures =
    let gate ok msg =
      if ok then [] else [ { key = "service"; msg; timing = false } ]
    in
    let group = get_num "service" sv "binary_group_records_per_fsync"
    and always = get_num "service" sv "json_always_records_per_fsync" in
    (* no fsync at all reads as infinitely many records per fsync *)
    gate
      (Float.is_finite group && group > min_group_records_per_fsync)
      (Printf.sprintf
         "service: binary+group wrote %.2f WAL records per fsync: group \
          commit must fsync, and batch more than %.0f records"
         group min_group_records_per_fsync)
    @ gate (always = 1.0)
        (Printf.sprintf
           "service: json+always wrote %g WAL records per fsync, not exactly \
            1: fsync-per-append must sync every record"
           always)
  in
  let baseline_failures =
    match Option.bind baseline (Json.member "service") with
    | None -> []
    | Some base ->
        let vs field timing =
          let b = get_num "service(baseline)" base field
          and c = get_num "service" sv field in
          if c > b *. (1.0 +. tolerance) then
            [
              {
                key = "service";
                msg =
                  Printf.sprintf
                    "service: %s regressed %.1f -> %.1f (>%.0f%% over \
                     baseline)"
                    field b c (tolerance *. 100.0);
                timing;
              };
            ]
          else []
        in
        vs "words_per_request" false @ vs "norm_ns_per_request" true
  in
  floor_failures @ fsync_failures @ overhead_failures @ baseline_failures

(* The multicore gate: an absolute speedup floor like the service one.
   A probe that recorded itself as skipped gates nothing — the report
   carries the reason, and the CI matrix pins at least one runner with
   enough cores so the floor is enforced somewhere on every change. *)
let check_multicore mc =
  match Json.member "skipped" mc with
  | Some (Json.Bool true) -> []
  | _ ->
      let s = get_num "multicore" mc "speedup" in
      if s < min_multicore_speedup then
        [
          {
            key = "multicore";
            msg =
              Printf.sprintf
                "multicore speedup (domains=4 vs domains=1, 4 conns) %.2fx \
                 is below the %.1fx floor"
                s min_multicore_speedup;
            timing = false;
          };
        ]
      else []

(* The federation gates: the routing core's deterministic golden must
   match the baseline's byte-for-byte (same Fed_index rule, same id
   scheme, same quotas, same planner — any drift is a routing-policy
   change smuggled in), the live federated run must ack every request
   (errors beyond admission noise mean the at-least-once story broke),
   and the live per-request overhead vs the direct point is capped by
   an absolute same-host ceiling. *)
let check_federation baseline fd =
  let floor_failures =
    let o = get_num "federation" fd "overhead" in
    if o > max_federation_overhead then
      [
        {
          key = "federation";
          msg =
            Printf.sprintf
              "federated request overhead %.1fx exceeds the %.0fx ceiling \
               (router x 3 shards vs direct binary+group)"
              o max_federation_overhead;
          timing = true;
        };
      ]
    else []
  in
  let batch_failures =
    let r = get_num "federation" fd "requests_per_upstream_batch" in
    if r < min_requests_per_upstream_batch then
      [
        {
          key = "federation";
          msg =
            Printf.sprintf
              "router forwarded %.2f requests per upstream flush, below the \
               %.0f floor: the hop is not pipelined"
              r min_requests_per_upstream_batch;
          timing = false;
        };
      ]
    else []
  in
  let drift =
    match Option.bind baseline (Json.member "federation") with
    | None ->
        if baseline <> None then
          Printf.printf "note: baseline has no federation section\n";
        []
    | Some base -> (
        match (Json.member "golden" base, Json.member "golden" fd) with
        | Some b, Some c ->
            if Json.to_string b <> Json.to_string c then
              [
                {
                  key = "federation";
                  msg =
                    Printf.sprintf
                      "federation routing golden drifted\n  baseline: %s\n  \
                       current:  %s"
                      (Json.to_string b) (Json.to_string c);
                  timing = false;
                };
              ]
            else []
        | _ ->
            [
              {
                key = "federation";
                msg = "federation golden missing from baseline or this run";
                timing = false;
              };
            ])
  in
  floor_failures @ batch_failures @ drift

(* The scenario gate is double: every verdict must pass on its own
   (load bound, oracle, everything drained) regardless of any
   baseline, and its deterministic projection must match the
   baseline's byte-for-byte — verdict drift means behaviour drift. *)
let check_scenarios baseline scenarios =
  let own =
    List.filter_map
      (fun (name, j) ->
        match Json.member "pass" j with
        | Some (Json.Bool true) -> None
        | _ ->
            Some
              {
                key = "scenario/" ^ name;
                msg =
                  Printf.sprintf "scenario %s verdict failed: %s" name
                    (Json.to_string j);
                timing = false;
              })
      scenarios
  in
  let drift =
    match Option.bind baseline (Json.member "scenarios") with
    | None ->
        if baseline <> None then
          Printf.printf "note: baseline has no scenarios section\n";
        []
    | Some (Json.Obj base) ->
        List.filter_map
          (fun (name, b) ->
            match List.assoc_opt name scenarios with
            | None ->
                Some
                  {
                    key = "scenario/" ^ name;
                    msg =
                      Printf.sprintf
                        "scenario %s: present in baseline but not in this run"
                        name;
                    timing = false;
                  }
            | Some cur ->
                if Json.to_string b <> Json.to_string cur then
                  Some
                    {
                      key = "scenario/" ^ name;
                      msg =
                        Printf.sprintf
                          "scenario %s verdict drifted\n  baseline: %s\n  \
                           current:  %s"
                          name (Json.to_string b) (Json.to_string cur);
                      timing = false;
                    }
                else None)
          base
    | Some _ ->
        [
          {
            key = "scenarios";
            msg = "baseline scenarios section is not an object";
            timing = false;
          };
        ]
  in
  own @ drift

(* --- driver ------------------------------------------------------- *)

let () =
  let out = ref "BENCH_regress.json" in
  let compare_path = ref "" in
  let tolerance = ref default_tolerance in
  let update_baseline = ref false in
  let strict_time = ref false in
  let baseline_path = ref "BENCH_baseline.json" in
  let spec =
    [
      ("--out", Arg.Set_string out, "FILE  write the report here (default BENCH_regress.json)");
      ("--compare", Arg.Set_string compare_path, "FILE  compare against this baseline; exit 1 on regression");
      ("--tolerance", Arg.Set_float tolerance, Printf.sprintf "X  allowed relative cost growth (default %.2f)" default_tolerance);
      ("--update-baseline", Arg.Set update_baseline, "  also write the report to the baseline path");
      ("--strict-time", Arg.Set strict_time, "  fail (not warn) on wall-time regressions too");
      ("--baseline", Arg.Set_string baseline_path, "FILE  baseline path for --update-baseline (default BENCH_baseline.json)");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "regress.exe [--out FILE] [--compare FILE] [--tolerance X] [--update-baseline]";
  let calib = calibrate () in
  Printf.printf "calibration: %.2f ns/iter\n%!" calib;
  let cases =
    ref
      (List.map
         (fun c ->
           Printf.printf "running %-10s N=%-6d ...%!" c.alloc c.n;
           let key, j = run_case calib c in
           let ns = Option.bind (Json.member "ns_per_event" j) Json.to_float in
           Printf.printf " %8.0f ns/event\n%!" (Option.value ~default:nan ns);
           (key, j))
         suite)
  in
  List.iter (fun d -> Printf.printf "dropped: %s\n" d) dropped;
  Printf.printf "measuring scan-vs-index speedup (greedy, N=65536)...\n%!";
  let sp = speedup_probe () in
  let speedup = Option.bind (Json.member "speedup" sp) Json.to_float in
  Printf.printf "speedup: %.1fx\n%!" (Option.value ~default:nan speedup);
  Printf.printf "measuring the recovery audit (oracle, greedy, N=4096)...\n%!";
  let au = audit_probe () in
  Printf.printf "audit: %.0f words/event (ceiling %.0f)\n%!"
    (Option.value ~default:nan
       (Option.bind (Json.member "words_per_event" au) Json.to_float))
    max_audit_words_per_event;
  Printf.printf "measuring daemon start-up (Server.create, N=%d)...\n%!" startup_n;
  let su = startup_probe () in
  Printf.printf "startup: %.1f words/PE (ceiling %.0f)\n%!"
    (Option.value ~default:nan
       (Option.bind (Json.member "words_per_pe" su) Json.to_float))
    max_startup_words_per_pe;
  Printf.printf "measuring durable state size (stationary churn to %s mutations)...\n%!"
    (String.concat ", " (List.map string_of_int state_runs));
  let st = state_probe () in
  (match Json.member "runs" st with
  | Some (Json.Obj rows) ->
      List.iter
        (fun (key, row) ->
          let num f = Option.value ~default:nan (Option.bind (Json.member f row) Json.to_float) in
          Printf.printf
            "state %-7s %6.0f snapshot bytes, %.2f per live task, %.0f WAL records \
             replayed, recovery %.1f ms\n%!"
            key (num "snapshot_bytes") (num "snapshot_bytes_per_live_task")
            (num "wal_records_replayed") (num "recover_ms"))
        rows
  | _ -> ());
  Printf.printf "measuring load-index add/pick (N=%s)...\n%!"
    (String.concat ", " (List.map string_of_int load_index_sizes));
  let li = load_index_probe calib in
  (match Json.member "sizes" li with
  | Some (Json.Obj rows) ->
      List.iter
        (fun (key, row) ->
          let num f = Option.value ~default:nan (Option.bind (Json.member f row) Json.to_float) in
          Printf.printf
            "load_index %-8s add %4.0f ns %g words, pick %4.0f ns %.1f words\n%!"
            key (num "ns_per_add") (num "words_per_add") (num "ns_per_pick")
            (num "words_per_pick"))
        rows
  | _ -> ());
  Printf.printf "measuring service throughput (binary+group vs json+always)...\n%!";
  let sv = service_probe calib in
  let service_speedup = Option.bind (Json.member "speedup" sv) Json.to_float in
  let service_words = Option.bind (Json.member "words_per_request" sv) Json.to_float in
  let service_overhead =
    Option.bind (Json.member "observability_overhead" sv) Json.to_float
  in
  Printf.printf
    "service speedup: %.1fx, read path %.2f words/request, observability \
     overhead %+.1f%%\n%!"
    (Option.value ~default:nan service_speedup)
    (Option.value ~default:nan service_words)
    ((Option.value ~default:nan service_overhead -. 1.0) *. 100.0);
  let per_fsync f =
    Option.value ~default:nan (Option.bind (Json.member f sv) Json.to_float)
  in
  Printf.printf
    "service WAL records per fsync: binary+group %.1f (floor > %.0f), \
     json+always %g (must be 1)\n%!"
    (per_fsync "binary_group_records_per_fsync")
    min_group_records_per_fsync
    (per_fsync "json_always_records_per_fsync");
  Printf.printf "measuring multicore scaling (domains=4 vs domains=1)...\n%!";
  let mc = multicore_probe () in
  (match Json.member "skipped" mc with
  | Some (Json.Bool true) ->
      Printf.printf "multicore gate skipped: %s\n%!"
        (match Json.member "reason" mc with
        | Some (Json.Str r) -> r
        | _ -> "unknown")
  | _ ->
      Printf.printf "multicore speedup: %.2fx (floor %.1fx)\n%!"
        (Option.value ~default:nan
           (Option.bind (Json.member "speedup" mc) Json.to_float))
        min_multicore_speedup);
  Printf.printf
    "measuring federation (router x 3 shards vs direct, + routing golden)...\n%!";
  let fd = federation_probe calib in
  Printf.printf
    "federation overhead: %.1fx (ceiling %.0fx), %.0f req/s federated, %.1f \
     requests per upstream flush (floor %.0f)\n%!"
    (Option.value ~default:nan
       (Option.bind (Json.member "overhead" fd) Json.to_float))
    max_federation_overhead
    (Option.value ~default:nan
       (Option.bind (Json.member "fed_requests_per_sec" fd) Json.to_float))
    (Option.value ~default:nan
       (Option.bind (Json.member "requests_per_upstream_batch" fd) Json.to_float))
    min_requests_per_upstream_batch;
  Printf.printf "running scenario fast subset (%s)...\n%!"
    (String.concat ", "
       (List.map
          (fun (s : Pmp_scenario.Scenario.t) -> s.Pmp_scenario.Scenario.name)
          Pmp_scenario.Registry.fast_subset));
  let scenarios = scenario_verdicts () in
  let baseline =
    if !compare_path = "" then None else Some (Json.of_file !compare_path)
  in
  let base_cases b =
    match Json.member "cases" b with
    | Some (Json.Obj o) -> o
    | _ -> failwith "baseline: missing cases object"
  in
  let compare_now () =
    match baseline with
    | None -> []
    | Some b ->
        compare_cases ~tolerance:!tolerance ~base_cases:(base_cases b)
          ~cur_cases:!cases
  in
  (* a timing-only failure earns one fresh re-measurement of just the
     offending cases: a multi-second load burst on the host can shift
     even a best-of-many minimum, and a real regression survives the
     retry anyway *)
  let retries = ref 2 in
  let failures = ref (compare_now ()) in
  while
    !retries > 0
    && !failures <> []
    && List.for_all (fun f -> f.timing) !failures
  do
    decr retries;
    let keys = List.map (fun f -> f.key) !failures in
    Printf.printf "re-measuring after timing noise: %s\n%!"
      (String.concat ", " keys);
    cases :=
      List.map
        (fun c ->
          let key = case_key c in
          if List.mem key keys then run_case calib c
          else (key, List.assoc key !cases))
        suite;
    failures := compare_now ()
  done;
  let failures =
    check_speedup sp
    @ check_audit ~tolerance:!tolerance baseline au
    @ check_startup su
    @ check_state st
    @ check_load_index ~tolerance:!tolerance baseline li
    @ check_service ~tolerance:!tolerance baseline sv
    @ check_multicore mc
    @ check_federation baseline fd
    @ check_scenarios baseline scenarios
    @ !failures
  in
  (* wall-time regressions that survive the retries are warnings
     unless --strict-time: shared CI hosts see sustained load bursts
     no amount of best-of-k smoothing absorbs, so the hard gate rests
     on the deterministic proxies (behaviour drift, allocations per
     event and per index add, the scan-vs-index speedup floor) *)
  let hard, soft =
    List.partition (fun f -> !strict_time || not f.timing) failures
  in
  let rep = report calib !cases sp au su st li sv mc fd scenarios in
  Json.to_file !out rep;
  Printf.printf "wrote %s (%d cases)\n%!" !out (List.length !cases);
  if !update_baseline then begin
    Json.to_file !baseline_path rep;
    Printf.printf "wrote %s\n%!" !baseline_path
  end;
  List.iter (fun f -> Printf.printf "bench-regress: WARN: %s\n" f.msg) soft;
  match hard with
  | [] -> print_endline "bench-regress: OK"
  | fs ->
      List.iter (fun f -> Printf.eprintf "bench-regress: FAIL: %s\n" f.msg) fs;
      exit 1
