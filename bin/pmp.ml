(* pmp — command-line driver for the partitionable-multiprocessor
   allocation library.

     pmp run       simulate one allocator over one workload
     pmp sweep     sweep the reallocation parameter d over a workload
     pmp adversary play the Theorem 4.3 adversary against an allocator
     pmp gen       generate a workload trace file
     pmp replay    run an allocator over a saved trace
     pmp profile   describe a workload or trace
     pmp scenario  run production-shaped scenarios to p99-slowdown verdicts
     pmp bounds    print the paper's bounds for a machine size
     pmp serve     run the durable allocation daemon (pmpd)
     pmp client    drive a running daemon over its wire protocol *)

open Cmdliner

module Machine = Pmp_machine.Machine
module Sequence = Pmp_workload.Sequence
module Trace = Pmp_workload.Trace
module Builders = Pmp_cli.Builders
module Allocator = Pmp_core.Allocator
module Realloc = Pmp_core.Realloc
module Bounds = Pmp_core.Bounds
module Engine = Pmp_sim.Engine
module Metrics = Pmp_sim.Metrics
module Dump = Pmp_telemetry.Metrics.Dump
module Table = Pmp_util.Table

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* shared argument definitions                                         *)

let machine_arg =
  let doc = "Machine size N (a power of two)." in
  Arg.(value & opt int 256 & info [ "m"; "machine" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed for workloads and randomized allocators." in
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let steps_arg =
  let doc = "Number of workload events to generate." in
  Arg.(value & opt int 4000 & info [ "steps" ] ~docv:"K" ~doc)

let check_arg =
  let doc =
    "Validation mode. $(b,--check) (or $(b,--check=basic)) cross-checks \
     every allocator response against an independent mirror. \
     $(b,--check=oracle) instead holds the run to the allocator's \
     theorem envelope — the T3.1/T4.1/T4.2 load bound, the \
     d-reallocation budget, and the copy-packing invariant — and, on a \
     violation, shrinks the offending trace to a minimal counterexample."
  in
  Arg.(
    value
    & opt ~vopt:(Some "basic") (some string) None
    & info [ "check" ] ~docv:"MODE" ~doc)

(* The validation modes --check parses to. *)
type check_mode = Check_off | Check_basic | Check_oracle

let parse_check = function
  | None -> Ok Check_off
  | Some "basic" -> Ok Check_basic
  | Some "oracle" -> Ok Check_oracle
  | Some other ->
      Error
        (`Msg
           (Printf.sprintf "unknown check mode %S (basic|oracle)" other))

(* A fresh, deterministic allocator per call: what the oracle replays
   a sequence from. *)
let allocator_factory name machine ~d ~seed () =
  match Builders.allocator name machine ~d ~seed with
  | Ok a -> a
  | Error (`Msg e) -> invalid_arg e

(* In oracle mode, audit the whole sequence first (with trace shrinking
   on failure), then hand back the spec so the measured run is audited
   too and its trace records carry a per-event verdict. *)
let oracle_gate mode name machine ~d ~seed seq =
  match mode with
  | Check_off | Check_basic -> Ok None
  | Check_oracle -> (
      let* spec = Builders.oracle_spec name machine ~d in
      let make = allocator_factory name machine ~d ~seed in
      match Pmp_oracle.Oracle.check spec ~make seq with
      | Ok () -> Ok (Some spec)
      | Error cex ->
          Error
            (`Msg
               (Format.asprintf "oracle violation for %s:@.%a" name
                  Pmp_oracle.Oracle.pp_counterexample cex)))

let heatmap_arg =
  let doc = "Also print an ASCII per-PE load heatmap over time." in
  Arg.(value & flag & info [ "heatmap" ] ~doc)

let trace_arg =
  let doc =
    "Write a structured per-event trace to $(docv): one record per \
     arrival/departure plus one per repack burst, carrying task id, size, \
     placement, loads, L* and the oracle verdict."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Trace format: $(b,jsonl) (one JSON object per line) or $(b,chrome) \
     (trace-event array — open in chrome://tracing or Perfetto)."
  in
  Arg.(value & opt string "jsonl" & info [ "trace-format" ] ~docv:"FMT" ~doc)

let metrics_arg =
  let doc = "Print a Prometheus-style metrics dump after the run." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let parse_trace_format = function
  | "jsonl" -> Ok Pmp_telemetry.Tracer.Jsonl
  | "chrome" -> Ok Pmp_telemetry.Tracer.Chrome
  | other ->
      Error (`Msg (Printf.sprintf "unknown trace format %S (jsonl|chrome)" other))

(* Run [f] on a probe that traces to the file [path] in format [fmt],
   and close the trace, also when [f] raises. *)
let with_trace_file fmt path f =
  let* oc =
    match open_out path with
    | oc -> Ok oc
    | exception Sys_error e -> Error (`Msg ("cannot open trace file: " ^ e))
  in
  let tracer = Pmp_telemetry.Tracer.to_channel fmt oc in
  let probe = Pmp_telemetry.Probe.create ~tracer () in
  let finish () =
    Pmp_telemetry.Tracer.close tracer;
    close_out oc
  in
  let r = try f probe with e -> finish (); raise e in
  finish ();
  Ok r

(* Build the probe a subcommand asked for, run [f probe], then close
   the trace file and print the metrics dump. The probe stays noop
   (near-zero overhead) unless --trace or --metrics was given. *)
let with_telemetry ~trace ~format ~metrics f =
  let* fmt = parse_trace_format format in
  let print_metrics probe =
    if metrics then print_string (Pmp_telemetry.Probe.snapshot probe)
  in
  match trace with
  | None ->
      let probe =
        if metrics then Pmp_telemetry.Probe.create ()
        else Pmp_telemetry.Probe.noop
      in
      let* r = f probe in
      print_metrics probe;
      Ok r
  | Some path ->
      let* probe, r =
        with_trace_file fmt path (fun probe -> (probe, f probe))
      in
      print_metrics probe;
      let* r = r in
      Printf.printf "trace written to %s\n" path;
      Ok r

let d_arg =
  let doc = "Reallocation parameter d (an integer, or 'inf')." in
  Arg.(value & opt string "2" & info [ "d" ] ~docv:"D" ~doc)

let alloc_arg =
  let doc =
    Printf.sprintf "Allocator: one of %s."
      (String.concat ", " Builders.allocator_names)
  in
  Arg.(value & opt string "greedy" & info [ "a"; "alloc" ] ~docv:"ALGO" ~doc)

let workload_arg =
  let doc =
    Printf.sprintf "Workload: one of %s."
      (String.concat ", " Builders.workload_names)
  in
  Arg.(value & opt string "churn" & info [ "w"; "workload" ] ~docv:"KIND" ~doc)

let topology_arg =
  let doc =
    "Topology for the migration-cost model: tree, hypercube, mesh, butterfly."
  in
  Arg.(value & opt string "tree" & info [ "topology" ] ~docv:"TOPO" ~doc)

let print_result (r : Engine.result) =
  let s = Metrics.summarize r in
  Printf.printf "allocator        : %s\n" r.Engine.allocator_name;
  Printf.printf "machine          : %d PEs\n" r.Engine.machine_size;
  Printf.printf "events           : %d\n" r.Engine.events;
  Printf.printf "max load         : %d\n" r.Engine.max_load;
  Printf.printf "optimal load L*  : %d\n" r.Engine.optimal_load;
  Printf.printf "load / L*        : %.2f\n" r.Engine.ratio;
  Printf.printf "max ratio (inst.): %.2f\n" s.Metrics.max_ratio;
  Printf.printf "p99 load         : %.1f\n" s.Metrics.p99_load;
  Printf.printf "reallocations    : %d\n" r.Engine.realloc_events;
  Printf.printf "tasks moved      : %d\n" r.Engine.tasks_moved;
  Printf.printf "migration traffic: %d PE-hop units\n" r.Engine.migration_traffic

(* The measured run [run] and [replay] share: the oracle gate, the
   migration-cost model over [topology], telemetry, [Engine.run] and the
   report. *)
let simulate mode alloc_name machine ~d ~seed ~topology ~trace ~trace_format
    ~metrics seq =
  let* oracle = oracle_gate mode alloc_name machine ~d ~seed seq in
  let cost = Pmp_sim.Cost.make topology in
  with_telemetry ~trace ~format:trace_format ~metrics (fun probe ->
      let* alloc = Builders.allocator ~probe alloc_name machine ~d ~seed in
      print_result
        (Engine.run ~check:(mode <> Check_off) ?oracle ~cost ~telemetry:probe
           alloc seq);
      Ok ())

(* ------------------------------------------------------------------ *)
(* subcommands                                                         *)

let run_cmd =
  let action machine_size alloc_name workload_name steps seed d_str check_str
      topo heatmap trace trace_format metrics =
    let* machine = Builders.machine machine_size in
    let* d = Builders.parse_d d_str in
    let* mode = parse_check check_str in
    let* seq = Builders.workload workload_name ~machine_size ~steps ~seed in
    let* topology = Builders.topology topo machine in
    let* () =
      simulate mode alloc_name machine ~d ~seed ~topology ~trace ~trace_format
        ~metrics seq
    in
    if heatmap then begin
      (* re-run a fresh allocator of the same kind for the picture *)
      let* alloc2 = Builders.allocator alloc_name machine ~d ~seed in
      print_newline ();
      print_string (Pmp_sim.Heatmap.render (Pmp_sim.Heatmap.sample alloc2 seq));
      Ok ()
    end
    else Ok ()
  in
  let term =
    Term.(
      term_result
        (const action $ machine_arg $ alloc_arg $ workload_arg $ steps_arg
       $ seed_arg $ d_arg $ check_arg $ topology_arg $ heatmap_arg $ trace_arg
       $ trace_format_arg $ metrics_arg))
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate one allocator over one workload.") term

let csv_arg =
  let doc = "Emit CSV instead of an aligned table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let sweep_cmd =
  let action machine_size workload_name steps seed check_str csv =
    let* machine = Builders.machine machine_size in
    let* mode = parse_check check_str in
    let* seq = Builders.workload workload_name ~machine_size ~steps ~seed in
    let table =
      Table.create
        ~title:
          (Printf.sprintf "d sweep: %s on N = %d (%d events, L* = %d)"
             workload_name machine_size (Sequence.length seq)
             (Sequence.optimal_load seq ~machine_size))
        [ "d"; "max load"; "load/L*"; "reallocs"; "moved"; "upper bound" ]
    in
    let ds =
      Realloc.Every
      :: List.map (fun d -> Realloc.Budget d) [ 1; 2; 3; 4; 6; 8 ]
      @ [ Realloc.Never ]
    in
    List.iter
      (fun d ->
        let alloc = Pmp_core.Periodic.create ~force_copies:true machine ~d in
        (* the forced copy branch keeps the packing invariant at every
           d; its provable envelope on arbitrary sequences is L* + d *)
        let oracle =
          match mode with
          | Check_off | Check_basic -> None
          | Check_oracle ->
              Some
                {
                  Pmp_oracle.Oracle.bound =
                    (match d with
                    | Realloc.Every -> Pmp_oracle.Oracle.Within_plus 0
                    | Realloc.Budget b -> Pmp_oracle.Oracle.Within_plus b
                    | Realloc.Never -> Pmp_oracle.Oracle.Unbounded);
                  budget = Some d;
                  disjoint_copies = true;
                }
        in
        let r = Engine.run ~check:(mode <> Check_off) ?oracle alloc seq in
        Table.add_row table
          [
            Realloc.to_string d;
            string_of_int r.Engine.max_load;
            Table.fmt_ratio r.Engine.ratio;
            string_of_int r.Engine.realloc_events;
            string_of_int r.Engine.tasks_moved;
            string_of_int (Bounds.det_upper_factor ~machine_size ~d);
          ])
      ds;
    if csv then print_string (Table.to_csv table) else Table.print table;
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const action $ machine_arg $ workload_arg $ steps_arg $ seed_arg
       $ check_arg $ csv_arg))
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Sweep the reallocation parameter d.") term

(* ------------------------------------------------------------------ *)
(* pmpd: the durable allocation daemon and its client                  *)

let socket_arg =
  let doc = "Unix-domain socket path to listen on (or connect to)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let host_arg =
  let doc = "TCP address to listen on (or connect to)." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let port_arg =
  let doc = "TCP port to listen on (or connect to); 0 picks a free port." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

(* What [serve] and [fed serve] listen on: the Unix socket (by default
   [default] under [dir], unless a TCP port is given) and the TCP port. *)
let listen ~dir ~default socket host port =
  let socket =
    match (socket, port) with
    | None, None -> Some (Filename.concat dir default)
    | _ -> socket
  in
  (match socket with
  | Some path ->
      Printf.printf "listening on unix socket %s\n%!" path;
      [ Pmp_server.Server.listen_unix path ]
  | None -> [])
  @
  match port with
  | Some port ->
      let fd, bound = Pmp_server.Server.listen_tcp ~host ~port in
      Printf.printf "listening on %s:%d\n%!" host bound;
      [ fd ]
  | None -> []

let cap_arg =
  let doc =
    "Admission capacity as a multiple of N (omit for the paper's real-time \
     model)."
  in
  Arg.(value & opt (some float) None & info [ "cap" ] ~docv:"X" ~doc)

let serve_cmd =
  let dir_arg =
    let doc = "State directory for the WAL and snapshots (created)." in
    Arg.(value & opt string "pmpd-state" & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let fsync_arg =
    let doc =
      "WAL durability policy: $(b,always) (fsync every record), $(b,group) \
       (one fsync per event-loop batch — same acknowledgement guarantee, a \
       fraction of the fsyncs) or $(b,never) (durability left to the OS; \
       a crash may lose acknowledged writes)."
    in
    Arg.(value & opt string "group" & info [ "fsync-policy" ] ~docv:"POLICY" ~doc)
  in
  let snapshot_arg =
    let doc = "Write a snapshot every $(docv) mutations (0 = on demand only)." in
    Arg.(value & opt int 1024 & info [ "snapshot-every" ] ~docv:"K" ~doc)
  in
  let crash_arg =
    let doc =
      "Crash-injection test mode: raise a hard crash right after the \
       $(docv)-th accepted mutation reaches the WAL (its response is never \
       sent). The process exits with status 42; restarting against the same \
       --dir must recover the exact pre-crash state."
    in
    Arg.(value & opt (some int) None & info [ "crash-after" ] ~docv:"K" ~doc)
  in
  let latency_profile_arg =
    let doc =
      "Time every request and pipeline stage (read, decode, apply, \
       WAL-append, fsync, ack) into per-opcode and per-stage histograms in \
       the metrics dump. Off by default: the timestamps allocate, which the \
       zero-allocation dispatch path otherwise avoids."
    in
    Arg.(value & flag & info [ "latency-profile" ] ~doc)
  in
  let slow_ms_arg =
    let doc =
      "Log requests slower than $(docv) milliseconds to stderr and count \
       them in $(b,pmpd_slow_requests_total) (implies per-request timing, \
       like $(b,--latency-profile))."
    in
    Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS" ~doc)
  in
  let recorder_arg =
    let doc =
      "Flight-recorder ring size: the last $(docv) requests and replayed \
       WAL records are kept in memory and dumped as JSON lines to \
       <dir>/flightrec.jsonl on SIGUSR1, on any abnormal exit (crash \
       injection included) and on a refused recovery. 0 disables."
    in
    Arg.(value & opt int 256 & info [ "flight-recorder" ] ~docv:"K" ~doc)
  in
  let domains_arg =
    let doc =
      "Worker domains (shards). 1 serves inline on one event loop; a power \
       of two K > 1 partitions the machine into K subtree shards, each the \
       same daemon core (WAL, snapshots, recovery audit, metrics, flight \
       recorder) over N/K PEs in its own domain and state directory \
       <dir>/shard-<s>. A submission of size 2^k goes to the leftmost shard \
       whose least-loaded order-k window is the machine's least (shards \
       with admission headroom first; the connection's home shard wins a \
       tie), from the load summaries each shard publishes at each commit, \
       so one connection under greedy without --cap places as K = 1 does. \
       Tasks larger than N/K are refused. A state directory only restarts \
       with the K it was written with."
    in
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"K" ~doc)
  in
  let action machine_size alloc_name d_str seed cap dir socket host port
      fsync_policy snapshot_every crash_after latency_profile slow_ms
      recorder_size domains =
    let* _ = Builders.machine machine_size in
    let* d = Builders.parse_d d_str in
    let* policy = Builders.cluster_policy alloc_name ~d ~seed in
    let* fsync_policy =
      Result.map_error (fun e -> `Msg e) (Pmp_server.Wal.parse_policy fsync_policy)
    in
    let config =
      {
        Pmp_server.Server.machine_size;
        policy;
        admission_cap = cap;
        dir;
        fsync_policy;
        snapshot_every;
        crash_after;
        latency_profile;
        slow_ms;
        recorder_size;
        domains;
      }
    in
    let* server =
      Result.map_error (fun e -> `Msg e) (Pmp_server.Server.create config)
    in
    let listeners = listen ~dir ~default:"pmp.sock" socket host port in
    let shards = Pmp_server.Server.shards server in
    let total f = Array.fold_left (fun n s -> n + f s) 0 shards in
    if total Pmp_server.Server.recovered_ops > 0 then
      Printf.printf "recovered %d WAL records (seq %d)\n%!"
        (total Pmp_server.Server.recovered_ops)
        (total Pmp_server.Server.seq);
    match Pmp_server.Server.serve server ~listeners with
    | () -> Ok ()
    | exception Pmp_server.Server.Crash ->
        Printf.eprintf "crash injection tripped; flight recorder at %s\n%!"
          (String.concat ", "
             (Array.to_list (Array.map Pmp_server.Server.flightrec_path shards)));
        exit 42
  in
  let term =
    Term.(
      term_result
        (const action $ machine_arg $ alloc_arg $ d_arg $ seed_arg $ cap_arg
       $ dir_arg $ socket_arg $ host_arg $ port_arg $ fsync_arg
       $ snapshot_arg $ crash_arg $ latency_profile_arg $ slow_ms_arg
       $ recorder_arg $ domains_arg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run pmpd: the cluster as a durable network daemon (WAL + snapshots \
          + crash recovery).")
    term

let connect_client socket host port =
  match (socket, port) with
  | Some path, None -> Pmp_server.Client.connect_unix path
  | None, Some port -> Pmp_server.Client.connect_tcp ~host ~port ()
  | Some _, Some _ -> Error "give either --socket or --port, not both"
  | None, None -> Error "give --socket or --port"

(* The connection [client], [client bench], [fed status] and [top]
   share: the address flags, connect, run [f], close. *)
let with_client socket host port f =
  let* conn =
    Result.map_error (fun e -> `Msg e) (connect_client socket host port)
  in
  Fun.protect
    ~finally:(fun () -> Pmp_server.Client.close conn)
    (fun () -> f conn)

(* Read commands from stdin and print [ask]'s answer to each, until end
   of input, [quit], a [Bye] or a failed [ask]: [client]'s loop over a
   daemon and [console]'s over a bare cluster. *)
let command_loop ask =
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> Ok ()
    | Some line -> (
        match Pmp_server.Protocol.request_of_command line with
        | `Blank -> loop ()
        | `Quit -> Ok ()
        | `Error e ->
            Printf.printf "error: %s\n%!" e;
            loop ()
        | `Request req -> (
            match ask req with
            | Ok resp -> (
                print_endline (Pmp_server.Protocol.render_response resp);
                match resp with Pmp_server.Protocol.Bye -> Ok () | _ -> loop ())
            | Error e ->
                (* a crashed daemon shows up here as a closed socket *)
                Printf.printf "connection error: %s\n%!" e;
                Ok ()))
  in
  loop ()

let stage_names = [ "read"; "decode"; "apply"; "wal_append"; "fsync"; "ack" ]

(* Per-shard throughput attribution, from the shard tags a federation
   router piggybacks on rid-tagged responses. Empty against a plain
   pmpd (no tags) — then we print nothing. *)
let print_by_shard (o : Pmp_server.Loadgen.outcome) =
  match o.Pmp_server.Loadgen.by_shard with
  | [] -> ()
  | by_shard ->
      let total =
        List.fold_left (fun acc (_, n) -> acc + n) 0 by_shard
      in
      Printf.printf "served by shard:\n";
      List.iter
        (fun (shard, n) ->
          Printf.printf "  shard %-3d : %8d req (%.1f%%)\n" shard n
            (100.0 *. float_of_int n /. float_of_int (max 1 total)))
        by_shard

let client_bench_cmd =
  let requests_arg =
    let doc = "Number of requests to drive." in
    Arg.(value & opt int 100_000 & info [ "n"; "requests" ] ~docv:"N" ~doc)
  in
  let window_arg =
    let doc = "Pipeline window: requests kept in flight." in
    Arg.(value & opt int 32 & info [ "window" ] ~docv:"W" ~doc)
  in
  let rid_arg =
    let doc =
      "Tag every request with its send index as a request id and verify the \
       server echoes it in order (an end-to-end check of per-request \
       attribution; adds a few bytes per message)."
    in
    Arg.(value & flag & info [ "rid" ] ~doc)
  in
  let conns_arg =
    let doc =
      "Client connections, the first driven from the calling domain and \
       each other one from a domain of its own, each with its own \
       decorrelated generator. More than one is the shape that exercises a \
       sharded server's shards in parallel. The latency histogram samples \
       the first connection; the server stage attribution covers them all."
    in
    Arg.(value & opt int 1 & info [ "conns" ] ~docv:"C" ~doc)
  in
  let action socket host port requests window seed machine_size rids conns =
    let module Metrics = Pmp_telemetry.Metrics in
    if requests < 1 || window < 1 || conns < 1 then
      Error (`Msg "--requests, --window and --conns must be at least 1")
    else
      with_client socket host port @@ fun conn ->
      (* buckets from 1 µs to ~8 s *)
      let latency =
        Metrics.Histogram.make
          (Metrics.log_bounds ~start:1.0 ~ratio:2.0 ~count:24)
      in
      let dump () =
        Result.value ~default:"" (Pmp_server.Client.metrics conn)
      in
      let before = dump () in
      let r =
        Pmp_server.Loadgen.drive_parallel
          ~connect:(fun () -> connect_client socket host port)
          ~conns ~requests ~window ~seed ~machine_size ~latency ~rids ()
      in
      let after = match r with Ok _ -> dump () | Error _ -> "" in
      let* o = Result.map_error (fun e -> `Msg e) r in
      let p = Pmp_server.Loadgen.percentile latency in
      Printf.printf "connections    : %d\n" conns;
      Printf.printf "requests       : %d (%d mutations, %d errors)%s\n"
        o.Pmp_server.Loadgen.requests o.Pmp_server.Loadgen.mutations
        o.Pmp_server.Loadgen.errors
        (if rids then ", rids verified" else "");
      Printf.printf "elapsed        : %.3f s\n" o.Pmp_server.Loadgen.elapsed;
      Printf.printf "throughput     : %.0f req/s (aggregate)\n"
        (Pmp_server.Loadgen.requests_per_sec o);
      Printf.printf "ns/request     : %.0f\n"
        (Pmp_server.Loadgen.ns_per_request o);
      Printf.printf
        "latency (us)   : p50 <= %.0f  p90 <= %.0f  p99 <= %.0f  max %.1f\n"
        (p 50.0) (p 90.0) (p 99.0)
        (Metrics.Histogram.max_seen latency);
      print_by_shard o;
      (* server-side attribution: the same run, seen from inside the
         daemon — end-to-end minus these stages is queueing + wire *)
      let rows =
        List.filter_map
          (fun stage ->
            let q =
              Dump.quantile ~labels:[ ("stage", stage) ] ~before ~after
                "pmpd_stage_seconds"
            in
            Option.map
              (fun (p99, n) ->
                let at q' = Option.fold ~none:0.0 ~some:fst (q q') in
                (stage, at 0.5, p99, at 0.999, n))
              (q 0.99))
          stage_names
      in
      if rows = [] then
        Printf.printf
          "server stages  : no samples (start pmpd with --latency-profile)\n"
      else begin
        Printf.printf "server stages (us, this run):\n";
        List.iter
          (fun (stage, p50, p99, p999, n) ->
            Printf.printf
              "  %-10s : p50 ~ %-8.1f p99 ~ %-8.1f p999 ~ %-8.1f (n=%d)\n"
              stage (p50 *. 1e6) (p99 *. 1e6) (p999 *. 1e6) n)
          rows
      end;
      Ok ()
  in
  let term =
    Term.(
      term_result
        (const action $ socket_arg $ host_arg $ port_arg $ requests_arg
       $ window_arg $ seed_arg $ machine_arg $ rid_arg $ conns_arg))
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Drive a running pmpd closed-loop with a deterministic churn \
          workload and report throughput and a latency histogram.")
    term

let client_cmd =
  let action socket host port =
    with_client socket host port @@ fun conn ->
    command_loop (Pmp_server.Client.request conn)
  in
  let term =
    Term.(term_result (const action $ socket_arg $ host_arg $ port_arg))
  in
  Cmd.group ~default:term
    (Cmd.info "client"
       ~doc:
         "Drive a running pmpd from stdin (submit/finish/query/stats/loads/\
          metrics/snapshot/shutdown), or benchmark it with $(b,bench).")
    [ client_bench_cmd ]

(* The client's command loop over an in-process cluster instead of a
   daemon: what pmpd would answer, minus durability. *)
let console_cmd =
  let action machine_size alloc_name d_str cap =
    let* _ = Builders.machine machine_size in
    let* d = Builders.parse_d d_str in
    let* policy = Builders.cluster_policy alloc_name ~d ~seed:42 in
    let* cluster =
      Result.map_error
        (fun e -> `Msg e)
        (Pmp_cluster.Cluster.create ~machine_size ~policy ~admission_cap:cap ())
    in
    command_loop (fun req -> Ok (Pmp_server.Protocol.answer cluster req))
  in
  let term =
    Term.(
      term_result (const action $ machine_arg $ alloc_arg $ d_arg $ cap_arg))
  in
  Cmd.v
    (Cmd.info "console"
       ~doc:
         "Drive a live in-process cluster from stdin with $(b,client)'s \
          commands (submit/finish/query/stats/loads).")
    term

(* ------------------------------------------------------------------ *)
(* federation: many tree machines behind one allocator                 *)

let fed_serve_cmd =
  let shards_arg =
    let doc =
      "Spawn $(docv) local pmpd shards — one domain each, durable state \
       under <dir>/shard-<k>, Unix socket <dir>/shard-<k>/pmp.sock — and \
       route across them. The router owns these shards: $(b,shutdown) \
       against the router shuts them down too. Mutually exclusive with \
       $(b,--shard-socket)."
    in
    Arg.(value & opt int 0 & info [ "shards" ] ~docv:"M" ~doc)
  in
  let shard_socket_arg =
    let doc =
      "Unix socket of an already-running pmpd shard (repeatable; argument \
       order fixes shard indices). Mutually exclusive with $(b,--shards)."
    in
    Arg.(
      value & opt_all string [] & info [ "shard-socket" ] ~docv:"PATH" ~doc)
  in
  let dir_arg =
    let doc =
      "Router directory: flight-recorder dumps, the default listen socket \
       (<dir>/fed.sock) and self-spawned shard state live here (created)."
    in
    Arg.(value & opt string "fed-state" & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let cap_arg =
    let doc =
      "Admission capacity of each self-spawned shard, as a multiple of its \
       machine size (omit for the paper's real-time model)."
    in
    Arg.(value & opt (some float) None & info [ "cap" ] ~docv:"X" ~doc)
  in
  let tenant_cap_arg =
    let doc =
      "Per-tenant admission quota, as a multiple of the aggregate machine \
       size (each client connection is one tenant). Omit for no quotas."
    in
    Arg.(value & opt (some float) None & info [ "tenant-cap" ] ~docv:"X" ~doc)
  in
  let poll_arg =
    let doc =
      "Seconds between rounds of stats polls, which refresh the shard load \
       index, and health probes, which reconnect downed shards."
    in
    Arg.(value & opt float 0.5 & info [ "poll-interval" ] ~docv:"S" ~doc)
  in
  let rebalance_arg =
    let doc =
      "Enable the cross-shard rebalancer: drain tasks from the hottest to \
       the coldest shard whenever their load gap exceeds $(docv). Omit to \
       disable."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "rebalance-threshold" ] ~docv:"GAP" ~doc)
  in
  let rebalance_tasks_arg =
    let doc = "Migration budget: tasks moved per rebalance round." in
    Arg.(value & opt int 8 & info [ "rebalance-tasks" ] ~docv:"K" ~doc)
  in
  let rebalance_bytes_arg =
    let doc = "Migration budget: bytes moved per rebalance round." in
    Arg.(
      value & opt int (1 lsl 20) & info [ "rebalance-bytes" ] ~docv:"B" ~doc)
  in
  let rebalance_interval_arg =
    let doc = "Seconds between rebalance rounds." in
    Arg.(value & opt float 1.0 & info [ "rebalance-interval" ] ~docv:"S" ~doc)
  in
  let recorder_arg =
    let doc =
      "Router flight-recorder ring size; dumped to <dir>/flightrec.jsonl on \
       SIGUSR1 and on abnormal exit. 0 disables."
    in
    Arg.(value & opt int 4096 & info [ "flight-recorder" ] ~docv:"K" ~doc)
  in
  let action machine_size alloc_name d_str seed shards shard_sockets dir cap
      tenant_cap socket host port poll_interval rebalance_threshold
      rebalance_tasks rebalance_bytes rebalance_interval recorder_size =
    let* _ = Builders.machine machine_size in
    let* d = Builders.parse_d d_str in
    let* () =
      match (shards > 0, shard_sockets <> []) with
      | true, true ->
          Error (`Msg "give either --shards or --shard-socket, not both")
      | false, false ->
          Error (`Msg "give --shards M or at least one --shard-socket")
      | _ -> Ok ()
    in
    (* Self-spawned shards: create (and recover) each server in this
       domain so failures surface before we listen, then hand its event
       loop to a fresh domain. The bound socket accepts connections the
       moment it exists, so the router's create below can connect
       immediately and block until the shard's loop answers. *)
    let* sockets, domains =
      if shards = 0 then Ok (Array.of_list shard_sockets, [])
      else begin
        let rec build socks doms k =
          if k = shards then Ok (Array.of_list (List.rev socks), List.rev doms)
          else begin
            let sdir = Filename.concat dir (Printf.sprintf "shard-%d" k) in
            let* policy =
              Builders.cluster_policy alloc_name ~d ~seed:(seed + (k * 7919))
            in
            let config =
              {
                (Pmp_server.Server.default_config ~machine_size ~policy
                   ~dir:sdir)
                with
                admission_cap = cap;
              }
            in
            let* server =
              Result.map_error (fun e -> `Msg e)
                (Pmp_server.Server.create config)
            in
            if Pmp_server.Server.recovered_ops server > 0 then
              Printf.printf "shard %d: recovered %d WAL records (seq %d)\n%!"
                k
                (Pmp_server.Server.recovered_ops server)
                (Pmp_server.Server.seq server);
            let path = Filename.concat sdir "pmp.sock" in
            let fd = Pmp_server.Server.listen_unix path in
            Printf.printf "shard %d: listening on unix socket %s\n%!" k path;
            let dom =
              Domain.spawn (fun () ->
                  try Pmp_server.Server.serve server ~listeners:[ fd ]
                  with e ->
                    Printf.eprintf "shard %d died: %s\n%!" k
                      (Printexc.to_string e))
            in
            build (path :: socks) (dom :: doms) (k + 1)
          end
        in
        build [] [] 0
      end
    in
    let config =
      {
        (Pmp_federation.Router.default_config ~sockets ~dir) with
        tenant_quota = tenant_cap;
        poll_interval;
        rebalance =
          Option.map
            (fun threshold ->
              {
                Pmp_federation.Rebalance.default_config with
                threshold;
                max_tasks = rebalance_tasks;
                max_bytes = rebalance_bytes;
              })
            rebalance_threshold;
        rebalance_interval;
        shutdown_shards = shards > 0;
        recorder_size;
      }
    in
    let* router =
      Result.map_error (fun e -> `Msg e)
        (Pmp_federation.Router.create config)
    in
    Printf.printf "federating %d shards, %d PEs aggregate\n%!"
      (Pmp_federation.Router.shards router)
      (Pmp_federation.Router.aggregate_size router);
    let listeners = listen ~dir ~default:"fed.sock" socket host port in
    Pmp_federation.Router.serve router ~listeners;
    List.iter Domain.join domains;
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const action $ machine_arg $ alloc_arg $ d_arg $ seed_arg
       $ shards_arg $ shard_socket_arg $ dir_arg $ cap_arg $ tenant_cap_arg
       $ socket_arg $ host_arg $ port_arg $ poll_arg $ rebalance_arg
       $ rebalance_tasks_arg $ rebalance_bytes_arg $ rebalance_interval_arg
       $ recorder_arg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a federation router over many pmpd shards: min-of-max \
          placement, shard-tagged ids, tenant quotas, failover and \
          budgeted cross-shard rebalancing.")
    term

let fed_status_cmd =
  let action socket host port =
    with_client socket host port @@ fun conn ->
    let request req =
      Result.map_error (fun e -> `Msg e) (Pmp_server.Client.request conn req)
    in
    let* health = request Pmp_server.Protocol.Health in
    let* stats = request Pmp_server.Protocol.Stats in
    let* dump =
      Result.map_error (fun e -> `Msg e) (Pmp_server.Client.metrics conn)
    in
    Printf.printf "router   : %s\n"
      (Pmp_server.Protocol.render_response health);
    Printf.printf "aggregate: %s\n"
      (Pmp_server.Protocol.render_response stats);
    let shard name sx =
      Dump.value ~labels:[ ("shard", string_of_int sx) ] dump name
    in
    let total name = Option.value ~default:0.0 (Dump.value dump name) in
    Printf.printf
      "requests : %.0f routed, %.0f quota rejects, %.0f mark-downs, %.0f \
       re-admitted\n"
      (total "fed_requests_total")
      (total "fed_admission_rejects_total")
      (total "fed_markdowns_total")
      (total "fed_readmitted_total");
    Printf.printf "rebalance: %.0f tasks, %.0f bytes, %.0f audit failures\n"
      (total "fed_rebalanced_total")
      (total "fed_rebalanced_bytes_total")
      (total "fed_audit_failures_total");
    let rec shard_rows sx =
      match shard "fed_shard_up" sx with
      | None -> ()
      | Some up ->
          let load = Option.value ~default:0.0 (shard "fed_shard_load" sx) in
          let routed =
            Option.value ~default:0.0 (shard "fed_shard_routed_total" sx)
          in
          Printf.printf "  shard %-3d: %-4s load %-6.0f routed %.0f\n" sx
            (if up > 0.0 then "up" else "DOWN")
            load routed;
          shard_rows (sx + 1)
    in
    shard_rows 0;
    Ok ()
  in
  let term =
    Term.(term_result (const action $ socket_arg $ host_arg $ port_arg))
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Show a federation router's health, aggregate stats and a \
          per-shard up/load/routed table scraped from its metrics.")
    term

let fed_cmd =
  Cmd.group
    (Cmd.info "fed"
       ~doc:
         "Federate many pmpd tree machines behind one allocator endpoint \
          ($(b,serve)), and inspect it ($(b,status)).")
    [ fed_serve_cmd; fed_status_cmd ]

let top_cmd =
  let interval_arg =
    let doc = "Seconds between refreshes." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"S" ~doc)
  in
  let count_arg =
    let doc = "Stop after $(docv) frames (0 = run until interrupted)." in
    Arg.(value & opt int 0 & info [ "count" ] ~docv:"N" ~doc)
  in
  let action socket host port interval count =
    with_client socket host port @@ fun conn ->
    if interval <= 0.0 then Error (`Msg "--interval must be positive")
    else begin
      let module P = Pmp_server.Protocol in
      let module C = Pmp_cluster.Cluster in
      let ask req pick =
        let* r =
          Result.map_error (fun e -> `Msg e) (Pmp_server.Client.request conn req)
        in
        Option.to_result
          ~none:(`Msg ("unexpected response: " ^ P.render_response r))
          (pick r)
      in
      let rec frames i prev =
        let* health =
          ask P.Health (function P.Health_reply h -> Some h | _ -> None)
        in
        let* stats =
          ask P.Stats (function P.Stats_reply s -> Some s | _ -> None)
        in
        let* loads =
          ask P.Loads (function P.Loads_reply l -> Some l | _ -> None)
        in
        let* dump =
          Result.map_error (fun e -> `Msg e) (Pmp_server.Client.metrics conn)
        in
        (* frames after the first show the last interval, not since-boot *)
        let before = match prev with Some d -> d | None -> "" in
        let idle =
          Array.fold_left (fun n l -> if l = 0 then n + 1 else n) 0 loads
        in
        let pes = Array.length loads in
        let v name = Option.value ~default:0.0 (Dump.value dump name) in
        let dv name =
          match prev with
          | None -> None
          | Some b ->
              Option.map
                (fun cur ->
                  cur -. Option.value ~default:0.0 (Dump.value b name))
                (Dump.value dump name)
        in
        print_string "\027[2J\027[H";
        Printf.printf "pmpd %s  uptime %.1fs  seq %d  recovered %d\n"
          (if health.P.ready then "ready" else "NOT READY")
          (float_of_int health.P.uptime_ms /. 1000.0)
          health.P.seq health.P.recovered_ops;
        Printf.printf
          "load      : max %d  optimal %d  ratio %.2f  peak %d  rolling p99 \
           ratio %.2f\n"
          stats.C.max_load stats.C.optimal_now
          (if stats.C.optimal_now > 0 then
             float_of_int stats.C.max_load /. float_of_int stats.C.optimal_now
           else 1.0)
          stats.C.peak_load
          (v "pmpd_p99_load_ratio");
        Printf.printf
          "tasks     : active %d (size %d)  queued %d  submitted %d  \
           completed %d\n"
          stats.C.active_now stats.C.active_size stats.C.queued_now
          stats.C.submitted stats.C.completed;
        Printf.printf "frag      : %d/%d PEs idle (%.1f%%)%s\n" idle pes
          (if pes > 0 then 100.0 *. float_of_int idle /. float_of_int pes
           else 0.0)
          (if stats.C.queued_now > 0 && idle > 0 then
             "  [queued work behind idle PEs]"
           else "");
        Printf.printf "repack    : %d reallocations  %d tasks migrated\n"
          stats.C.reallocations stats.C.tasks_migrated;
        Printf.printf "wal       : lag %.0f  fsyncs %.0f  slow requests %.0f\n"
          (v "pmpd_wal_lag") (v "pmpd_fsync_total")
          (v "pmpd_slow_requests_total");
        (match dv "pmpd_requests_total" with
        | Some d ->
            Printf.printf "traffic   : %.0f req/s over the last %.1fs\n"
              (d /. interval) interval
        | None ->
            Printf.printf "traffic   : %.0f requests since start\n"
              (v "pmpd_requests_total"));
        let ops =
          [
            "submit"; "finish"; "query"; "stats"; "loads"; "metrics";
            "snapshot"; "ping"; "health";
          ]
        in
        let rows =
          List.filter_map
            (fun op ->
              Option.map
                (fun (p99, n) -> (op, p99, n))
                (Dump.quantile ~labels:[ ("op", op) ] ~before ~after:dump
                   "pmpd_request_seconds" 0.99))
            ops
        in
        if rows = [] then
          Printf.printf
            "op p99    : no samples (start pmpd with --latency-profile)\n%!"
        else begin
          Printf.printf "op p99 (us%s):\n"
            (if prev = None then ", since start" else ", interval");
          List.iter
            (fun (op, p99, n) ->
              Printf.printf "  %-8s : %-10.1f (n=%d)\n" op (p99 *. 1e6) n)
            rows;
          print_string "\027[0J";
          flush stdout
        end;
        if count > 0 && i + 1 >= count then Ok ()
        else begin
          Unix.sleepf interval;
          frames (i + 1) (Some dump)
        end
      in
      frames 0 None
    end
  in
  let term =
    Term.(
      term_result
        (const action $ socket_arg $ host_arg $ port_arg $ interval_arg
       $ count_arg))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live operator view of a running pmpd: load, imbalance, \
          fragmentation, repack spend, WAL lag and per-opcode p99 at a fixed \
          refresh.")
    term

let adversary_cmd =
  let action machine_size alloc_name seed d_str =
    let* machine = Builders.machine machine_size in
    let* d = Builders.parse_d d_str in
    let d_int =
      match d with
      | Realloc.Every -> 0
      | Realloc.Budget b -> b
      | Realloc.Never -> Machine.levels machine
    in
    let* alloc = Builders.allocator alloc_name machine ~d ~seed in
    let outcome = Pmp_adversary.Det_adversary.run alloc ~d:d_int in
    Printf.printf "victim        : %s\n" alloc.Allocator.name;
    Printf.printf "phases        : %d\n"
      outcome.Pmp_adversary.Det_adversary.phases_run;
    Printf.printf "events        : %d\n"
      (Sequence.length outcome.Pmp_adversary.Det_adversary.sequence);
    Printf.printf "forced load   : %d\n"
      outcome.Pmp_adversary.Det_adversary.max_load;
    Printf.printf "optimal load  : %d\n"
      outcome.Pmp_adversary.Det_adversary.optimal_load;
    Printf.printf "theorem floor : %d\n"
      (Pmp_adversary.Det_adversary.forced_factor ~machine_size ~d:d_int
      * outcome.Pmp_adversary.Det_adversary.optimal_load);
    Ok ()
  in
  let term =
    Term.(
      term_result (const action $ machine_arg $ alloc_arg $ seed_arg $ d_arg))
  in
  Cmd.v
    (Cmd.info "adversary"
       ~doc:"Play the Theorem 4.3 adversary against an allocator.")
    term

let out_arg =
  let doc = "Output trace file." in
  Arg.(
    value & opt string "workload.trace" & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let gen_cmd =
  let action machine_size workload_name steps seed out =
    let* _machine = Builders.machine machine_size in
    let* seq = Builders.workload workload_name ~machine_size ~steps ~seed in
    Trace.save out seq;
    Printf.printf "wrote %d events to %s (peak demand %d, L* = %d on N = %d)\n"
      (Sequence.length seq) out
      (Sequence.peak_active_size seq)
      (Sequence.optimal_load seq ~machine_size)
      machine_size;
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const action $ machine_arg $ workload_arg $ steps_arg $ seed_arg
       $ out_arg))
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a workload trace file.") term

let trace_pos =
  let doc = "Trace file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)

let replay_cmd =
  let action machine_size alloc_name seed d_str check_str trace trace_format
      metrics path =
    let* machine = Builders.machine machine_size in
    let* d = Builders.parse_d d_str in
    let* mode = parse_check check_str in
    let* seq = Result.map_error (fun e -> `Msg e) (Trace.load path) in
    if not (Sequence.fits seq ~machine_size) then
      Error (`Msg "trace contains tasks larger than the machine")
    else
      (* run's default migration-cost model *)
      let topology =
        Pmp_machine.Topology.create Pmp_machine.Topology.Tree machine
      in
      simulate mode alloc_name machine ~d ~seed ~topology ~trace ~trace_format
        ~metrics seq
  in
  let term =
    Term.(
      term_result
        (const action $ machine_arg $ alloc_arg $ seed_arg $ d_arg $ check_arg
       $ trace_arg $ trace_format_arg $ metrics_arg $ trace_pos))
  in
  Cmd.v (Cmd.info "replay" ~doc:"Run an allocator over a saved trace.") term

let profile_cmd =
  let workload_opt =
    let doc = "Profile a generated workload instead of a trace file." in
    Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~docv:"KIND" ~doc)
  in
  let trace_opt =
    let doc = "Trace file to profile." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)
  in
  let action machine_size steps seed workload_name trace_path =
    let* seq =
      match (workload_name, trace_path) with
      | Some name, None -> Builders.workload name ~machine_size ~steps ~seed
      | None, Some path -> begin
          match Trace.load path with Ok s -> Ok s | Error e -> Error (`Msg e)
        end
      | Some _, Some _ -> Error (`Msg "give either a workload or a trace, not both")
      | None, None -> Error (`Msg "give a workload (-w) or a trace file")
    in
    let profile = Pmp_workload.Profile.analyze seq in
    Table.print (Pmp_workload.Profile.to_table profile ~machine_size);
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const action $ machine_arg $ steps_arg $ seed_arg $ workload_opt
       $ trace_opt))
  in
  Cmd.v (Cmd.info "profile" ~doc:"Describe a workload or trace.") term

(* Render the d-sweep frontier (max load and migration traffic vs d)
   or a single run's load trajectory as an SVG chart. *)
let chart_cmd =
  let out_arg =
    let doc = "Output SVG file." in
    Arg.(value & opt string "chart.svg" & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let kind_arg =
    let doc =
      "What to draw: 'frontier' (d sweep), 'trajectory' (one run), or \
       'heatmap' (per-PE load grid)."
    in
    Arg.(value & opt string "frontier" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let action machine_size alloc_name workload_name steps seed d_str out kind =
    let* machine = Builders.machine machine_size in
    let* seq = Builders.workload workload_name ~machine_size ~steps ~seed in
    match kind with
    | "frontier" ->
        let ds = [ 0; 1; 2; 3; 4; 6; 8 ] in
        let runs =
          List.map
            (fun d_raw ->
              let d = Realloc.make_budget d_raw in
              let topology =
                Pmp_machine.Topology.create Pmp_machine.Topology.Tree machine
              in
              let cost = Pmp_sim.Cost.make ~bytes_per_pe:4096 topology in
              let alloc = Pmp_core.Periodic.create ~force_copies:true machine ~d in
              (float_of_int d_raw, Engine.run ~cost alloc seq))
            ds
        in
        let load_series =
          {
            Pmp_report.Chart.label = "max load";
            points = List.map (fun (d, r) -> (d, float_of_int r.Engine.max_load)) runs;
            color = "#d62728";
            step = false;
          }
        in
        let traffic_series =
          let peak =
            List.fold_left
              (fun acc (_, r) -> max acc r.Engine.migration_traffic)
              1 runs
          in
          let top =
            List.fold_left
              (fun acc (_, r) -> max acc r.Engine.max_load)
              1 runs
          in
          {
            Pmp_report.Chart.label = "traffic (scaled)";
            points =
              List.map
                (fun (d, r) ->
                  ( d,
                    float_of_int r.Engine.migration_traffic
                    /. float_of_int peak *. float_of_int top ))
                runs;
            color = "#1f77b4";
            step = false;
          }
        in
        Pmp_report.Chart.save
          ~title:
            (Printf.sprintf "load/traffic frontier: %s on N=%d" workload_name
               machine_size)
          ~x_label:"reallocation parameter d" ~y_label:"max load" ~path:out
          [ load_series; traffic_series ];
        Printf.printf "wrote %s\n" out;
        Ok ()
    | "trajectory" ->
        let* d = Builders.parse_d d_str in
        let* alloc = Builders.allocator alloc_name machine ~d ~seed in
        let r = Engine.run alloc seq in
        let to_points arr =
          Array.to_list (Array.mapi (fun i v -> (float_of_int i, float_of_int v)) arr)
        in
        Pmp_report.Chart.save
          ~title:
            (Printf.sprintf "load trajectory: %s / %s on N=%d"
               r.Engine.allocator_name workload_name machine_size)
          ~x_label:"event" ~y_label:"machine load" ~path:out
          [
            {
              Pmp_report.Chart.label = "load";
              points = to_points r.Engine.load_trajectory;
              color = "#d62728";
              step = true;
            };
            {
              Pmp_report.Chart.label = "optimum";
              points = to_points r.Engine.opt_trajectory;
              color = "#2ca02c";
              step = true;
            };
          ];
        Printf.printf "wrote %s\n" out;
        Ok ()
    | "heatmap" ->
        let* d = Builders.parse_d d_str in
        let* alloc = Builders.allocator alloc_name machine ~d ~seed in
        let hm = Pmp_sim.Heatmap.sample ~rows:48 ~cols:128 alloc seq in
        Pmp_report.Heatgrid.save ~path:out
          (Pmp_report.Heatgrid.of_heatmap
             ~title:
               (Printf.sprintf "per-PE load: %s / %s on N=%d" alloc_name
                  workload_name machine_size)
             hm);
        Printf.printf "wrote %s\n" out;
        Ok ()
    | other -> Error (`Msg (Printf.sprintf "unknown chart kind %S" other))
  in
  let term =
    Term.(
      term_result
        (const action $ machine_arg $ alloc_arg $ workload_arg $ steps_arg
       $ seed_arg $ d_arg $ out_arg $ kind_arg))
  in
  Cmd.v (Cmd.info "chart" ~doc:"Render experiment curves as SVG.") term

let bounds_cmd =
  let action machine_size =
    let* _machine = Builders.machine machine_size in
    Printf.printf "machine size N                 : %d (log N = %d)\n"
      machine_size
      (Pmp_util.Pow2.ilog2 machine_size);
    Printf.printf "greedy factor (Thm 4.1)        : %d\n"
      (Bounds.greedy_upper_factor ~machine_size);
    let table =
      Table.create ~title:"deterministic d-reallocation factors (Thms 4.2-4.3)"
        [ "d"; "lower"; "upper" ]
    in
    List.iter
      (fun d_raw ->
        let d = Realloc.make_budget d_raw in
        Table.add_row table
          [
            string_of_int d_raw;
            string_of_int (Bounds.det_lower_factor ~machine_size ~d);
            string_of_int (Bounds.det_upper_factor ~machine_size ~d);
          ])
      [ 0; 1; 2; 3; 4; 6; 8; 12 ];
    Table.print table;
    if machine_size >= 4 then begin
      Printf.printf "randomized upper (Thm 5.1)     : %.3f\n"
        (Bounds.rand_upper_factor ~machine_size);
      Printf.printf
        "randomized lower (Thm 5.2)     : %.3f (stated), %.3f (constructive)\n"
        (Bounds.rand_lower_factor ~machine_size)
        (Bounds.rand_lower_constructive ~machine_size)
    end;
    Ok ()
  in
  let term = Term.(term_result (const action $ machine_arg)) in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print the paper's bounds for a machine size.")
    term

(* ------------------------------------------------------------------ *)
(* pmp scenario                                                        *)

let scenario_cmd =
  let module Scenario = Pmp_scenario.Scenario in
  let module Registry = Pmp_scenario.Registry in
  let module Verdict = Pmp_scenario.Verdict in
  let module Json = Pmp_util.Json in
  let scenario_pos =
    let doc =
      Printf.sprintf "Scenario name, or $(b,all). Known scenarios: %s."
        (String.concat ", " Builders.scenario_names)
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"SCENARIO" ~doc)
  in
  let machine_opt_arg =
    let doc =
      "Machine size N (a power of two). Defaults to each scenario's own \
       default machine."
    in
    Arg.(value & opt (some int) None & info [ "m"; "machine" ] ~docv:"N" ~doc)
  in
  let no_oracle_arg =
    let doc =
      "Skip the open-loop oracle replay and the closed-loop load-bound audit \
       (the verdict reports oracle=skipped)."
    in
    Arg.(value & flag & info [ "no-oracle" ] ~doc)
  in
  let out_arg =
    let doc =
      "Merge the verdict records into this JSON file under the \
       $(b,scenarios) key (other keys are preserved). Pass an empty string \
       to skip writing."
    in
    Arg.(
      value & opt string "BENCH_telemetry.json" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let trace_prefix_arg =
    let doc =
      "Write one trace file per scenario at $(docv)<name>.jsonl (or \
       .trace.json for chrome format)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PREFIX" ~doc)
  in
  let action name_sel machine_opt alloc_name seed d_str no_oracle out
      trace_prefix trace_format =
    let* scenarios =
      match name_sel with
      | "all" -> Ok Registry.all
      | name -> Result.map (fun s -> [ s ]) (Builders.scenario name)
    in
    let* d = Builders.parse_d d_str in
    let* fmt = parse_trace_format trace_format in
    let run_one (scn : Scenario.t) =
      let machine_size =
        match machine_opt with
        | Some n -> n
        | None -> 1 lsl scn.Scenario.default_order
      in
      let* machine = Builders.machine machine_size in
      let* oracle =
        if no_oracle then Ok None
        else Result.map Option.some (Builders.oracle_spec alloc_name machine ~d)
      in
      let make = allocator_factory alloc_name machine ~d ~seed in
      let run probe =
        Pmp_scenario.Runner.run ~telemetry:probe ?oracle ~make ~seed scn
      in
      let t0 = Sys.time () in
      let* verdict, _sim =
        match trace_prefix with
        | None -> Ok (run Pmp_telemetry.Probe.noop)
        | Some prefix ->
            let ext =
              match fmt with
              | Pmp_telemetry.Tracer.Jsonl -> "jsonl"
              | Pmp_telemetry.Tracer.Chrome -> "trace.json"
            in
            with_trace_file fmt
              (Printf.sprintf "%s%s.%s" prefix scn.Scenario.name ext)
              run
      in
      Format.printf "%a  (%.2fs cpu)@." Verdict.pp verdict (Sys.time () -. t0);
      Ok verdict
    in
    let* verdicts =
      List.fold_left
        (fun acc scn ->
          let* acc = acc in
          let* v = run_one scn in
          Ok (v :: acc))
        (Ok []) scenarios
      |> Result.map List.rev
    in
    let* () =
      if out = "" then Ok ()
      else begin
        let existing =
          try Json.of_file out
          with Json.Parse_error _ | Sys_error _ -> Json.Obj []
        in
        let fields = match existing with Json.Obj fs -> fs | _ -> [] in
        let entry = Json.Arr (List.map Verdict.to_json verdicts) in
        match
          Json.to_file out
            (Json.Obj
               (List.remove_assoc "scenarios" fields @ [ ("scenarios", entry) ]))
        with
        | () ->
            Printf.printf "verdicts merged into %s\n" out;
            Ok ()
        | exception Sys_error e ->
            Error (`Msg (Printf.sprintf "cannot write verdicts: %s" e))
      end
    in
    let failed = List.filter (fun v -> not v.Verdict.pass) verdicts in
    if failed = [] then Ok ()
    else
      Error
        (`Msg
           (Printf.sprintf "%d scenario verdict(s) failed: %s"
              (List.length failed)
              (String.concat ", "
                 (List.map (fun v -> v.Verdict.scenario) failed))))
  in
  let term =
    Term.(
      term_result
        (const action $ scenario_pos $ machine_opt_arg $ alloc_arg $ seed_arg
       $ d_arg $ no_oracle_arg $ out_arg $ trace_prefix_arg
       $ trace_format_arg))
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Run production-shaped workload scenarios to p99/p999-slowdown \
          verdicts with load-bound and oracle audits.")
    term

let () =
  let doc = "Processor allocation in partitionable multiprocessors (SPAA'96)." in
  let info = Cmd.info "pmp" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        run_cmd; sweep_cmd; adversary_cmd; gen_cmd; replay_cmd; profile_cmd;
        scenario_cmd; console_cmd; serve_cmd; client_cmd; fed_cmd; top_cmd;
        chart_cmd; bounds_cmd;
      ]
  in
  exit (Cmd.eval group)
