(* Bench-regression harness: a fixed-seed suite over machine sizes and
   allocators, and probes of the daemon's costs, written as one report
   and judged against a committed baseline.

     dune exec bench/regress.exe                      # run, write BENCH_regress.json
     dune exec bench/regress.exe -- --compare BENCH_baseline.json
     dune exec bench/regress.exe -- --update-baseline # refresh BENCH_baseline.json

   The gates are the rows of [Gates.table] (bench/gates.ml), each a
   path into the report, a bound and hard or advisory; the run prints
   every row's value and bound. Deterministic outputs (event counts,
   peak load, L*, competitive ratio, the federation routing golden,
   the scenario verdicts) must equal the baseline's. Counts and GC
   words, deterministic up to the OCaml version, gate hard. Wall-clock
   figures (raw and calibration-normalised ns, measured best-of-k) are
   advisory: a case whose only failures are advisory is re-measured
   up to twice, and then only warns, because shared CI hosts see
   sustained load bursts that no smoothing absorbs. A probe that
   cannot run on this host records itself as skipped, and its rows
   read "not taken". *)

module Machine = Pmp_machine.Machine
module Load_map = Pmp_machine.Load_map
module Realloc = Pmp_core.Realloc
module Engine = Pmp_sim.Engine
module Json = Pmp_util.Json
module Builders = Pmp_cli.Builders
module Dump = Pmp_telemetry.Metrics.Dump
module L = Pmp_server.Loadgen
module Gates = Pmp_gates.Gates

let seed = 42
let startup_n = 16_384

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
  let once () =
    let t0 = Unix.gettimeofday () in
    let x = ref 0x1E3779B97F4A7C15 in
    for _ = 1 to iters do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    ignore (Sys.opaque_identity !x);
    dt *. 1e9 /. float_of_int iters
  in
  (* the best of five, as the figures it normalises are best-of-k: one
     slow moment would otherwise skew every norm figure of the run *)
  List.fold_left min infinity (List.init 5 (fun _ -> once ()))

(* rm -rf, without a shell *)
let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* a live Loadgen measurement's outcome; an error response fails the
   probe, as a failed run does *)
let served label = function
  | Ok (o, _) when o.L.errors > 0 ->
      failwith (Printf.sprintf "%s: %d error responses" label o.L.errors)
  | Ok r -> r
  | Error e -> failwith (Printf.sprintf "%s: %s" label e)

(* the faster of two live measurements, by ns per request: a ratio
   taken on one run of each side moves with the host's noise *)
let best_of_two run =
  let a = run () in
  let b = run () in
  if L.ns_per_request (fst a) <= L.ns_per_request (fst b) then a else b

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

let build_alloc name machine =
  match Builders.allocator name machine ~d:(Realloc.Budget 2) ~seed with
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

(* replay one trace twice — through greedy, whose choice is one
   O(log N) query of the load index, and through the same leftmost
   min-of-max rule run as an O(N) scan over a Load_map — and report the
   per-event speedup. Measured in-process on the same trace and host,
   so the ratio is portable; this is the acceptance gate for the
   index. *)
let speedup_probe () =
  let n = 65536 in
  let steps = 1_000 in
  let machine = Machine.create n in
  let seq = churn ~steps n in
  let events = Pmp_workload.Sequence.events seq in
  (* both sides run the events directly, no engine in the way: this
     times exactly the code the index replaced (the per-arrival
     min-of-max-window query plus the load bookkeeping). A side builds
     its state untimed and returns its per-event step and a reader of
     its final placements. *)
  let index () =
    let alloc = build_alloc "greedy" machine in
    let step : Pmp_workload.Event.t -> unit = function
      | Arrive task ->
          ignore (Sys.opaque_identity (alloc.Pmp_core.Allocator.assign task))
      | Depart id -> alloc.Pmp_core.Allocator.remove id
    in
    ( step,
      fun () ->
        List.map
          (fun ((t : Pmp_workload.Task.t), p) -> (t.Pmp_workload.Task.id, p))
          (Pmp_core.Allocator.placements alloc) )
  in
  let scan () =
    let lm = Load_map.create machine and homes = Hashtbl.create 64 in
    let step : Pmp_workload.Event.t -> unit = function
      | Arrive task ->
          let _, sub =
            Load_map.min_max_at_order lm (Pmp_workload.Task.order task)
          in
          Load_map.add lm sub 1;
          Hashtbl.replace homes task.Pmp_workload.Task.id sub
      | Depart id ->
          Load_map.add lm (Hashtbl.find homes id) (-1);
          Hashtbl.remove homes id
    in
    ( step,
      fun () ->
        Hashtbl.fold
          (fun id sub acc -> (id, Pmp_core.Placement.direct sub) :: acc)
          homes [] )
  in
  let time side =
    let step, final = side () in
    let t0 = Unix.gettimeofday () in
    Array.iter step events;
    let wall = Unix.gettimeofday () -. t0 in
    ( wall *. 1e9 /. float_of_int (max 1 (Array.length events)),
      List.sort compare (final ()) )
  in
  let best side =
    let ns, final = time side in
    let ns = ref ns and n = ref 1 in
    while !n < 3 do
      let v, _ = time side in
      if v < !ns then ns := v;
      incr n
    done;
    (!ns, final)
  in
  (* index first so the scan run cannot look better via a warm cache *)
  let index_ns, final_index = best index in
  let scan_ns, final_scan = best scan in
  if final_index <> final_scan then
    failwith "speedup probe: greedy and the scan place tasks differently";
  let speedup = scan_ns /. index_ns in
  Json.Obj
    [
      ("case", Json.Str "greedy/N=65536 scan vs index");
      ("events", Json.Num (float_of_int (Array.length events)));
      ("scan_ns_per_event", Json.Num (Float.round scan_ns));
      ("index_ns_per_event", Json.Num (Float.round index_ns));
      ("speedup", Json.Num speedup);
      ("min_required", Json.Num Gates.min_speedup);
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
      ("max_words_per_event", Json.Num Gates.max_audit_words_per_event);
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
  rm_rf dir;
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
  rm_rf dir;
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
      ("max_words_per_pe", Json.Num Gates.max_startup_words_per_pe);
    ]

(* The state gate: a daemon's durable state and the work of its
   recovery are O(live tasks), not O(history). A stationary churn —
   1000 live size-4 tasks on N=4096 (load 1 throughout), then each
   finish of the oldest task followed by a fresh submit — runs through
   an in-process greedy [Server] at the default snapshot interval, to
   [state_runs] mutations. Snapshot bytes per live task and the WAL
   records a restart replays are counts, so the gate is hard: neither
   may grow from the shorter run to the longer one. So is the size of
   wal.log over the records the restart replays from it: the runs
   commit every 64 mutations with fsync [never], so it is
   deterministic. *)
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
  rm_rf dir;
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
  let wal_bytes = (Unix.stat (Filename.concat dir "wal.log")).Unix.st_size in
  let t0 = Unix.gettimeofday () in
  let r = get (Server.create config) in
  let recover_s = Unix.gettimeofday () -. t0 in
  let replayed = Server.recovered_ops r in
  Server.close r;
  rm_rf dir;
  ( string_of_int mutations,
    Json.Obj
      [
        ("mutations", Json.Num (float_of_int mutations));
        ("live_tasks", Json.Num (float_of_int live));
        ("snapshot_bytes", Json.Num (float_of_int bytes));
        ( "snapshot_bytes_per_live_task",
          Json.Num (float_of_int bytes /. float_of_int live) );
        ("wal_records_replayed", Json.Num (float_of_int replayed));
        ( "wal_bytes_per_record",
          Json.Num (float_of_int wal_bytes /. float_of_int replayed) );
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
      ("max_wal_bytes_per_record", Json.Num Gates.max_wal_bytes_per_record);
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
      ("max_words_per_add", Json.Num Gates.max_words_per_add);
    ]

(* The service gate: a live pmpd on a Unix socket, driven through the
   shared Loadgen workload. Both sides of the ratio run on the same
   host, so binary+group vs json+fsync-per-append transports across
   machines like the scan-vs-index speedup does; the allocation budget
   of the read fast path is deterministic like words_per_event, and
   each side's WAL records per fsync is read from the daemon's own
   metrics. Raw service ns/request is recorded calibration-normalised
   and gated as an advisory timing field. *)
let service_probe calib =
  let run label ?latency_profile ?recorder_size ~proto ~fsync_policy ~requests
      () =
    let label = Printf.sprintf "service probe (%s)" label in
    let o, dump =
      served label
        (L.bench ~proto ~fsync_policy ?latency_profile ?recorder_size ~requests
           ())
    in
    match
      ( Dump.value dump "pmpd_wal_group_size_sum",
        Dump.value dump "pmpd_fsync_total" )
    with
    | Some records, Some fsyncs -> (o, records /. fsyncs)
    | _ -> failwith (label ^ ": metrics lack the WAL counters")
  in
  (* best of two for the sides of the overhead ratio: a 5%-scale
     comparison needs more smoothing than the 5x-scale speedup floor *)
  let fast, fast_per_fsync =
    best_of_two (fun () ->
        run "binary+group" ~proto:Pmp_server.Client.Binary
          ~fsync_policy:Pmp_server.Wal.Group ~requests:30_000 ())
  in
  (* the same matrix point with every observability feature on: stage
     and per-opcode histograms plus a live flight recorder *)
  let instrumented, _ =
    best_of_two (fun () ->
        run "binary+group+obs" ~latency_profile:true ~recorder_size:1024
          ~proto:Pmp_server.Client.Binary ~fsync_policy:Pmp_server.Wal.Group
          ~requests:30_000 ())
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
      ("max_observability_overhead", Json.Num Gates.max_observability_overhead);
      ("norm_ns_per_request", Json.Num (fast_ns /. calib));
      ( "events_per_second",
        Json.Num (Float.round (L.requests_per_sec fast)) );
      ("speedup", Json.Num (slow_ns /. fast_ns));
      ("min_required", Json.Num Gates.min_service_speedup);
      ("words_per_request", Json.Num words);
      ("binary_group_records_per_fsync", Json.Num fast_per_fsync);
      ("json_always_records_per_fsync", Json.Num slow_per_fsync);
      ("min_group_records_per_fsync", Json.Num Gates.min_group_records_per_fsync);
    ]

(* The multicore gate: the same Loadgen workload, four connections,
   against a single-domain and a four-shard daemon. Wall-clock on both
   sides of the ratio, same host, so it transports like the other
   speedups — but unlike them it needs real parallel hardware, so the
   probe records itself as skipped, with the reason, when the host
   cannot run four domains at once. *)
let multicore_probe () =
  let case = ("case", Json.Str "multicore: domains=4 vs domains=1 (4 conns)")
  and floor = ("min_required", Json.Num Gates.min_multicore_speedup) in
  let cores = Domain.recommended_domain_count () in
  if cores < 4 then
    Json.Obj
      [
        case;
        ("skipped", Json.Bool true);
        ( "reason",
          Json.Str
            (Printf.sprintf
               "host cannot run 4 domains in parallel \
                (recommended_domain_count=%d)"
               cores) );
        floor;
      ]
  else
    let best domains =
      fst
        (best_of_two (fun () ->
             served
               (Printf.sprintf "multicore probe (domains=%d)" domains)
               (L.bench ~proto:Pmp_server.Client.Binary
                  ~fsync_policy:Pmp_server.Wal.Group ~domains ~conns:4
                  ~requests:30_000 ())))
    in
    let d1 = best 1 and d4 = best 4 in
    let d1_ns = L.ns_per_request d1 and d4_ns = L.ns_per_request d4 in
    Json.Obj
      [
        case;
        ("skipped", Json.Bool false);
        ("dom1_ns_per_request", Json.Num (Float.round d1_ns));
        ("dom4_ns_per_request", Json.Num (Float.round d4_ns));
        ("dom1_requests_per_sec", Json.Num (Float.round (L.requests_per_sec d1)));
        ("dom4_requests_per_sec", Json.Num (Float.round (L.requests_per_sec d4)));
        ("speedup", Json.Num (d1_ns /. d4_ns));
        floor;
      ]

(* The federation gate is double, like the scenario gate: the routing
   core's verdict on a scripted workload — run through Sim, which is
   Route, the code the socket router runs, over in-process clusters —
   is deterministic and pinned byte-for-byte against the baseline, and
   the live stack (one router in front of three shard daemons, every
   hop binary+group over Unix sockets) must answer every request and
   stay under an absolute per-request overhead ceiling vs the direct
   service point measured on the same host. *)
let federation_probe calib =
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
  let direct, _ =
    served "federation probe (direct)"
      (L.bench ~proto:Client.Binary ~fsync_policy:Pmp_server.Wal.Group
         ~requests:10_000 ())
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
      ("max_overhead", Json.Num Gates.max_federation_overhead);
      ("requests_per_upstream_batch", Json.Num per_batch);
      ( "min_requests_per_upstream_batch",
        Json.Num Gates.min_requests_per_upstream_batch );
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

let () =
  let out = ref "BENCH_regress.json" in
  let compare_path = ref "" in
  let update_baseline = ref false in
  let baseline_path = ref "BENCH_baseline.json" in
  let spec =
    [
      ("--out", Arg.Set_string out, "FILE  write the report here (default BENCH_regress.json)");
      ("--compare", Arg.Set_string compare_path, "FILE  judge against this baseline; exit 1 when a hard gate fails");
      ("--update-baseline", Arg.Set update_baseline, "  also write the report to the baseline path");
      ("--baseline", Arg.Set_string baseline_path, "FILE  baseline path for --update-baseline (default BENCH_baseline.json)");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "regress.exe [--out FILE] [--compare FILE] [--update-baseline]";
  let calib = calibrate () in
  Printf.printf "calibration: %.2f ns/iter\n%!" calib;
  let measuring what probe =
    Printf.printf "measuring %s...\n%!" what;
    probe ()
  in
  let cases =
    ref (List.map (fun c -> measuring (case_key c) (fun () -> run_case calib c)) suite)
  in
  List.iter (fun d -> Printf.printf "dropped: %s\n" d) dropped;
  let sp = measuring "scan-vs-index speedup (greedy, N=65536)" speedup_probe in
  let au = measuring "the recovery audit (oracle, greedy, N=4096)" audit_probe in
  let su =
    measuring
      (Printf.sprintf "daemon start-up (Server.create, N=%d)" startup_n)
      startup_probe
  in
  let st =
    measuring
      (Printf.sprintf "durable state size (stationary churn to %s mutations)"
         (String.concat ", " (List.map string_of_int state_runs)))
      state_probe
  in
  let li =
    measuring
      (Printf.sprintf "load-index add/pick (N=%s)"
         (String.concat ", " (List.map string_of_int load_index_sizes)))
      (fun () -> load_index_probe calib)
  in
  let sv =
    measuring "service throughput (binary+group vs json+always)" (fun () ->
        service_probe calib)
  in
  let mc = measuring "multicore scaling (domains=4 vs domains=1)" multicore_probe in
  let fd =
    measuring "federation (router x 3 shards vs direct, + routing golden)"
      (fun () -> federation_probe calib)
  in
  let scenarios = measuring "the scenario fast subset" scenario_verdicts in
  let baseline =
    if !compare_path = "" then None else Some (Json.of_file !compare_path)
  in
  let rep () = report calib !cases sp au su st li sv mc fd scenarios in
  (* a case whose only failures are advisory (wall-clock) earns a fresh
     re-measurement, twice at most: a multi-second load burst on the
     host can shift even a best-of-many minimum, and a real regression
     survives the retry anyway *)
  let rec settle retries checks =
    let failing hard =
      List.filter_map
        (fun (c : Gates.check) ->
          match c.key with
          | "cases" :: key :: _ when c.verdict = Gates.Fail && c.row.hard = hard ->
              Some key
          | _ -> None)
        checks
    in
    let noisy =
      List.filter (fun k -> not (List.mem k (failing true))) (failing false)
    in
    if retries = 0 || noisy = [] then checks
    else begin
      Printf.printf "re-measuring after timing noise: %s\n%!"
        (String.concat ", " (List.sort_uniq compare noisy));
      cases :=
        List.map
          (fun c ->
            let key = case_key c in
            if List.mem key noisy then run_case calib c
            else (key, List.assoc key !cases))
          suite;
      settle (retries - 1) (Gates.check ?baseline (rep ()))
    end
  in
  let checks = settle 2 (Gates.check ?baseline (rep ())) in
  Json.to_file !out (rep ());
  Printf.printf "wrote %s (%d cases)\n%!" !out (List.length !cases);
  if !update_baseline then begin
    Json.to_file !baseline_path (rep ());
    Printf.printf "wrote %s\n%!" !baseline_path
  end;
  Gates.print checks;
  if Gates.ok checks then print_endline "bench-regress: OK"
  else begin
    prerr_endline "bench-regress: FAIL: a hard gate failed";
    exit 1
  end
