(* pmpbench: the end-to-end benchmark of pmpd.

   For one workload (or all four), build a seeded request stream,
   spawn the built [pmp serve] / [pmp fed serve] binaries as separate
   processes, and drive them from this single-threaded process over one
   connection. Each measured round starts fresh daemons (one set-up
   sample), runs a closed-loop throughput phase and an open-loop
   latency phase, then checks every response against an in-process
   reference cluster. Rounds repeat until [--seconds] have passed and
   every metric is the median over rounds. [--trace 1] instead measures
   the per-layer costs (see {!Layers}) and writes a Chrome trace. The
   last line of standard output is the JSON result. *)

module Protocol = Pmp_server.Protocol
module Cluster = Pmp_cluster.Cluster

type spec = {
  name : string;
  machine_size : int;  (** aggregate over shards *)
  shards : int;  (** 0: one [pmp serve]; else that many behind [pmp fed serve] *)
  flags : string list;  (** [pmp serve] flags besides [-m] and [--dir] *)
  query_mix : bool;  (** 85% query / 5% stats / 10% churn after a prefill *)
  closed : int;  (** ops in the closed-loop throughput phase *)
  rate : float;  (** open-loop rate, requests per second *)
  open_ops : int;  (** ops in the open-loop latency phase *)
  restart : bool;  (** SIGKILL after the last ack, then timed recoveries *)
  p99_limit_us : float;  (** latency limit for the rate ladder *)
  ladder : (float * float) option;  (** first and last rung, req/s *)
}

let window = 32

let specs =
  [
    {
      name = "churn-write";
      machine_size = 4096;
      shards = 0;
      flags = [ "-a"; "greedy"; "--snapshot-every"; "0" ];
      query_mix = false;
      closed = 45_000;
      rate = 30_000.0;
      open_ops = 6_000;
      restart = false;
      p99_limit_us = 2000.0;
      ladder = Some (40_000.0, 240_000.0);
    };
    {
      name = "query-mostly";
      machine_size = 16384;
      shards = 0;
      flags = [ "--snapshot-every"; "0" ];
      query_mix = true;
      closed = 100_000;
      rate = 40_000.0;
      open_ops = 8_000;
      restart = false;
      p99_limit_us = 2000.0;
      ladder = Some (40_000.0, 320_000.0);
    };
    {
      name = "fed-churn";
      machine_size = 4096;
      shards = 2;
      flags = [ "--snapshot-every"; "0" ];
      query_mix = false;
      closed = 6_000;
      rate = 4_000.0;
      open_ops = 1_500;
      restart = false;
      p99_limit_us = 20_000.0;
      ladder = Some (2_000.0, 16_000.0);
    };
    {
      name = "restart";
      machine_size = 4096;
      shards = 0;
      flags = [];
      query_mix = false;
      closed = 12_000;
      rate = 8_000.0;
      open_ops = 2_000;
      restart = true;
      p99_limit_us = 2000.0;
      ladder = Some (4_000.0, 64_000.0);
    };
  ]

(* A few hundred ops per phase: every code path, no meaningful timing. *)
let smoke_spec s =
  {
    s with
    machine_size = min s.machine_size 4096;
    closed = 400;
    open_ops = 400;
    rate = Float.min s.rate 4000.0;
    ladder = None;
  }

let make_stream spec ~seed =
  if spec.query_mix then
    Stream.query_mix ~seed ~machine_size:spec.machine_size
      ~ops:(spec.closed + spec.open_ops)
  else
    Stream.churn_only ~seed ~machine_size:spec.machine_size
      ~mutations:(spec.closed + spec.open_ops)

(* ------------------------------------------------------------------ *)
(* daemons                                                             *)

type daemons = {
  pids : int list;  (** the process serving [conn] first *)
  states : string list;  (** state directories, shard order *)
  conn : Conn.t;
  setup_s : float;
}

let serve_args spec ~machine_size ~dir =
  [ "serve"; "-m"; string_of_int machine_size; "--dir"; dir ] @ spec.flags

let socket state = Filename.concat state "pmp.sock"

(* Spawn [count] shard daemons under [dir] at once, then wait for each;
   returns their pids and state directories. *)
let start_shards ~pmp spec ~dir ~count =
  let states = List.init count (fun k -> Filename.concat dir (Printf.sprintf "shard-%d" k)) in
  let machine_size = spec.machine_size / count in
  let pids =
    List.map
      (fun state -> Daemon.spawn ~pmp ~log:(state ^ ".log") (serve_args spec ~machine_size ~dir:state))
      states
  in
  List.iter2
    (fun pid state ->
      Conn.close (Daemon.await_ready ~pid ~socket:(socket state) ~log:(state ^ ".log")))
    pids states;
  (pids, states)

let stop_shards pids states =
  List.iter2
    (fun pid state ->
      match Conn.connect (socket state) with
      | Ok c -> Daemon.stop pid c
      | Error _ -> Daemon.kill pid)
    pids states

let start ~pmp spec ~dir =
  Daemon.rm_rf dir;
  Daemon.mkdir_p dir;
  let t0 = Clock.now_ns () in
  if spec.shards = 0 then begin
    let state = Filename.concat dir "pmpd" and log = Filename.concat dir "pmpd.log" in
    let pid =
      Daemon.spawn ~pmp ~log (serve_args spec ~machine_size:spec.machine_size ~dir:state)
    in
    let conn = Daemon.await_ready ~pid ~socket:(socket state) ~log in
    { pids = [ pid ]; states = [ state ]; conn; setup_s = Clock.since_s t0 }
  end
  else begin
    let pids, states = start_shards ~pmp spec ~dir ~count:spec.shards in
    let router = Filename.concat dir "router" and log = Filename.concat dir "router.log" in
    let pid =
      Daemon.spawn ~pmp ~log
        ([ "fed"; "serve"; "--dir"; router ]
        @ List.concat_map (fun s -> [ "--shard-socket"; socket s ]) states)
    in
    let conn = Daemon.await_ready ~pid ~socket:(Filename.concat router "fed.sock") ~log in
    { pids = pid :: pids; states; conn; setup_s = Clock.since_s t0 }
  end

(* A federation's router does not own external shards: stop it, then
   each shard. *)
let stop d =
  Daemon.stop (List.hd d.pids) d.conn;
  if List.length d.pids > 1 then stop_shards (List.tl d.pids) d.states

let rss_mb d = List.fold_left (fun acc pid -> acc +. Daemon.rss_peak_mb pid) 0.0 d.pids
let state_bytes d = List.fold_left (fun acc s -> acc + Daemon.dir_bytes s) 0 d.states

let stats_of = function
  | Protocol.Stats_reply s -> s
  | r -> Conn.fail "expected stats, got %s" (Protocol.render_response r)

(* ------------------------------------------------------------------ *)
(* checking                                                            *)

type check = { mutable bad : int; mutable first : string }

let mismatch c i fmt =
  Printf.ksprintf
    (fun msg ->
      if c.bad = 0 then c.first <- Printf.sprintf "op %d: %s" i msg;
      c.bad <- c.bad + 1)
    fmt

(* Placement-independent counters: what a federation must agree on
   with a single reference cluster. *)
let same_counts (a : Cluster.stats) (b : Cluster.stats) =
  a.submitted = b.submitted && a.completed = b.completed
  && a.queued_now = b.queued_now && a.active_now = b.active_now
  && a.active_size = b.active_size

(* Check the responses to ops [[0, hi)]. A single daemon must answer
   exactly as the reference did; a federation places tasks its own
   way, so it must place every submit at its size, finish every
   finish, and report stats that balance. *)
let check spec (st : Stream.t) expected replies ~hi =
  let c = { bad = 0; first = "" } in
  let got = Conn.decode_all replies ~count:hi in
  for i = 0 to hi - 1 do
    let show r = Protocol.render_response r in
    match (got.(i), expected.(i)) with
    | Error e, _ -> mismatch c i "undecodable response: %s" e
    | Ok r, want when spec.shards = 0 ->
        if r <> want then mismatch c i "got %s, want %s" (show r) (show want)
    | Ok (Protocol.Placed (_, p)), _ when st.kind.(i) = Stream.k_submit ->
        if p.Protocol.size <> st.size.(i) then mismatch c i "placed at size %d" p.Protocol.size
    | Ok Protocol.Finished, Protocol.Finished -> ()
    | Ok (Protocol.Stats_reply s), Protocol.Stats_reply want ->
        if not (same_counts s want) then
          mismatch c i "stats do not balance: %s" (show (Protocol.Stats_reply s))
    | Ok r, want -> mismatch c i "got %s, want %s" (show r) (show want)
  done;
  c

(* ------------------------------------------------------------------ *)
(* measured rounds                                                     *)

type round = {
  setup : float;
  cpu_us : float;  (** daemon on-CPU time per request, closed loop *)
  ref_ms : float;  (** {!Clock.ref_loop_ms} around the phases, median *)
  throughput : float;
  p50 : float;
  p99 : float;
  late_us : float;
  rss : float;
  bytes_per_mutation : float;
  metrics_text : string;  (** the daemon's metrics after the last op *)
  final : Cluster.stats;  (** its answer to the last op *)
  states : string list;
  failed : int;
  error : string;
}

let fresh_ids spec (st : Stream.t) =
  if spec.shards = 0 then Array.init st.tasks Fun.id else Array.make st.tasks (-1)

(* Kill the writer after its last ack and restart it on the same
   directory: the set-up sample is the recovery, and the recovered
   daemon must report the stats of the last ack. *)
let recover ~pmp spec d ~dir ~want =
  Daemon.kill (List.hd d.pids);
  Conn.close d.conn;
  let t0 = Clock.now_ns () in
  let state = List.hd d.states and log = Filename.concat dir "recover.log" in
  let pid = Daemon.spawn ~pmp ~log (serve_args spec ~machine_size:spec.machine_size ~dir:state) in
  let conn = Daemon.await_ready ~pid ~socket:(socket state) ~log in
  let setup = Clock.since_s t0 in
  let got = stats_of (Conn.request conn Protocol.Stats) in
  Conn.close conn;
  Daemon.kill pid;
  (setup, got = want)

(* Fresh daemons; the prefill, then the closed-loop throughput phase,
   the open-loop latency phase at [spec.rate] and the final stats; then
   stop (or crash and recover) and check every response. With [sent],
   the first requests of the throughput phase also become spans. *)
let measured_round ?sent ~pmp ~dir spec (st : Stream.t) expected replies lat =
  let n = Stream.length st in
  let ids = fresh_ids spec st in
  let d = start ~pmp spec ~dir in
  Conn.reset replies;
  let run ?sent ~lo ~hi rate = Conn.run ?sent d.conn st ~ids ~replies ~lat ~lo ~hi ~window ~rate in
  let closed_lo = st.prefill and open_lo = st.prefill + spec.closed in
  let cpu_ns () = List.fold_left (fun acc pid -> acc + Daemon.cpu_ns pid) 0 d.pids in
  ignore (run ~lo:0 ~hi:closed_lo None);
  let ref0 = Clock.ref_loop_ms () in
  let cpu0 = cpu_ns () in
  let c = run ?sent ~lo:closed_lo ~hi:open_lo None in
  let cpu_us = float_of_int (cpu_ns () - cpu0) /. 1e3 /. float_of_int spec.closed in
  let ref1 = Clock.ref_loop_ms () in
  Option.iter
    (fun sent ->
      for i = closed_lo to min open_lo (closed_lo + 2000) - 1 do
        Report.span ~cat:"request" ~tid:0 ~rid:i "request" sent.(i) lat.(i)
      done)
    sent;
  let o = run ~lo:open_lo ~hi:(n - 1) (Some spec.rate) in
  let ref2 = Clock.ref_loop_ms () in
  ignore (run ~lo:(n - 1) ~hi:n None);
  let metrics_text =
    match Conn.request d.conn Protocol.Metrics with Protocol.Metrics_reply s -> s | _ -> ""
  in
  let rss = rss_mb d and bytes = state_bytes d in
  let setup, recovered_ok =
    if spec.restart then recover ~pmp spec d ~dir ~want:(stats_of expected.(n - 1))
    else begin
      stop d;
      (d.setup_s, true)
    end
  in
  let c' = check spec st expected replies ~hi:n in
  if not recovered_ok then mismatch c' n "recovered stats differ from the last ack";
  let pct = Report.percentile_us lat ~lo:open_lo ~hi:(n - 1) in
  {
    setup;
    cpu_us;
    ref_ms = Report.median [| ref0; ref1; ref2 |];
    throughput = float_of_int spec.closed /. c.Conn.elapsed_s;
    p50 = pct 50.0;
    p99 = pct 99.0;
    late_us = o.Conn.late_p99_us;
    rss;
    bytes_per_mutation = float_of_int bytes /. float_of_int st.mutations;
    metrics_text;
    final = stats_of (Result.get_ok (Conn.reply replies (n - 1)));
    states = d.states;
    failed = c'.bad;
    error = c'.first;
  }

type outcome = { metrics : Report.metric list; attempted : int; failed : int }

let describe spec (st : Stream.t) ~gen_s =
  Printf.printf "# %s: %d ops (%d prefill, %d mutations) on N=%d%s, peak L* = %d, generated in %.2f s\n%!"
    spec.name (Stream.length st) st.prefill st.mutations spec.machine_size
    (if spec.shards > 0 then Printf.sprintf " over %d shards" spec.shards else "")
    st.peak_lstar gen_s

let prepare spec ~seed =
  let t0 = Clock.now_ns () in
  let st = make_stream spec ~seed in
  let gen_s = Clock.since_s t0 in
  let final, expected = Stream.reference st in
  describe spec st ~gen_s;
  (st, final, expected)

let report_round spec k (r : round) =
  if r.failed > 0 then
    Printf.printf "# %s: %d wrong responses; first: %s\n%!" spec.name r.failed r.error;
  Printf.printf
    "# %s round %d: %.2f us CPU/req, reference loop %.2f ms, %.0f req/s, p50 %.1f us, p99 %.1f us, set-up %.4f s\n%!"
    spec.name k r.cpu_us r.ref_ms r.throughput r.p50 r.p99 r.setup

let median_of rounds f = Report.median (Array.of_list (List.map f rounds))

(* A round's CPU-bound cost scaled to a host of fixed speed: the scale
   follows the host's swings, a slower pmp does not. *)
let scaled r x = x *. Clock.ref_host_ms /. r.ref_ms

let failures rounds = List.fold_left (fun a (r : round) -> a + r.failed) 0 rounds

let run_measured ~pmp ~work ~seconds ~min_rounds spec ~seed =
  let st, _, expected = prepare spec ~seed in
  let n = Stream.length st in
  let replies = Conn.replies n and lat = Array.make n 0 in
  let dir = Filename.concat work spec.name in
  let t0 = Clock.now_ns () in
  let rec loop acc =
    if List.length acc >= min_rounds && Clock.since_s t0 >= seconds then List.rev acc
    else begin
      let r = measured_round ~pmp ~dir spec st expected replies lat in
      report_round spec (List.length acc) r;
      loop (r :: acc)
    end
  in
  let rounds = loop [] in
  Daemon.rm_rf dir;
  let k = List.length rounds and med = median_of rounds in
  Printf.printf
    "# %s: %d rounds; medians: %.2f us CPU/req, reference loop %.2f ms, %.0f req/s, p50 %.1f us, generator late by %.0f us at p99\n"
    spec.name k (med (fun r -> r.cpu_us)) (med (fun r -> r.ref_ms)) (med (fun r -> r.throughput))
    (med (fun r -> r.p50)) (med (fun r -> r.late_us));
  {
    metrics =
      [
        Report.metric "setup_s" "s" (med (fun r -> scaled r r.setup)) ~samples:k;
        Report.metric "ref_cpu_us_per_req" "us" (med (fun r -> scaled r r.cpu_us)) ~samples:k;
        Report.metric "rss_peak_mb" "MiB" (med (fun r -> r.rss)) ~samples:k;
        Report.metric "state_bytes_per_mutation" "bytes"
          (med (fun r -> r.bytes_per_mutation)) ~samples:k;
      ];
    attempted = k * n;
    failed = failures rounds;
  }

(* ------------------------------------------------------------------ *)
(* the rate ladder                                                     *)

(* The highest rung (x1.15 from the first) at which a half-second
   open-loop phase on fresh daemons keeps p99 and generator lateness
   under the limit and the in-flight backlog does not grow. *)
let ladder ~pmp ~work spec (st : Stream.t) expected (first, last) =
  let n = Stream.length st in
  let replies = Conn.replies n and lat = Array.make n 0 in
  let dir = Filename.concat work (spec.name ^ "-ladder") in
  let attempt rate =
    let ids = fresh_ids spec st in
    let d = start ~pmp spec ~dir in
    Conn.reset replies;
    let run ~lo ~hi rate = Conn.run d.conn st ~ids ~replies ~lat ~lo ~hi ~window ~rate in
    ignore (run ~lo:0 ~hi:st.prefill None);
    let hi = min (n - 1) (st.prefill + int_of_float (rate *. 0.5)) in
    let o = run ~lo:st.prefill ~hi (Some rate) in
    stop d;
    let c = check spec st expected replies ~hi in
    if c.bad > 0 then Conn.fail "ladder at %.0f req/s: %s" rate c.first;
    let p99 = Report.percentile_us lat ~lo:st.prefill ~hi 99.0 in
    let pass =
      p99 <= spec.p99_limit_us
      && o.Conn.late_p99_us <= spec.p99_limit_us
      && o.Conn.inflight_end
         <= (2 * o.Conn.inflight_mid) + int_of_float (rate *. spec.p99_limit_us /. 1e6)
    in
    Printf.printf "# %s ladder %.0f req/s: p99 %.0f us, late p99 %.0f us, in flight %d -> %d: %s\n%!"
      spec.name rate p99 o.Conn.late_p99_us o.Conn.inflight_mid o.Conn.inflight_end
      (if pass then "pass" else "fail");
    pass
  in
  (* a rung gets a second try: one host stall in half a second is
     enough to push p99 over the limit *)
  let rung rate = attempt rate || attempt rate in
  let rec climb rate best =
    if rate > last *. 1.0001 || not (rung rate) then best else climb (rate *. 1.15) rate
  in
  let best = climb first 0.0 in
  Daemon.rm_rf dir;
  best

(* ------------------------------------------------------------------ *)
(* the traced run                                                      *)

let scrape text name =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> acc +. float_of_string v
      | _ -> acc)
    0.0
    (String.split_on_char '\n' text)

(* Three pairs of measured rounds, untraced then traced (the traced
   throughput phase records a span per request), then every layer in
   process on the same stream, then the rate ladder. *)
let run_traced ~pmp ~work ~trace_file spec ~seed =
  let st, final_ref, expected = prepare spec ~seed in
  let n = Stream.length st in
  let replies = Conn.replies n and lat = Array.make n 0 and sent = Array.make n 0 in
  let dir = Filename.concat work spec.name in
  let round k sent =
    Report.with_span ~cat:"round" ~tid:0
      (Printf.sprintf "round %d%s" k (if sent = None then "" else " traced"))
      (fun () ->
        let r = measured_round ?sent ~pmp ~dir spec st expected replies lat in
        report_round spec k r;
        r)
  in
  let pairs = List.init 3 (fun k -> let plain = round (2 * k) None in (plain, round ((2 * k) + 1) (Some sent))) in
  let plain = List.map fst pairs and traced = List.map snd pairs in
  let rounds = plain @ traced in
  let untraced_rps = median_of plain (fun r -> r.throughput) in
  let last = List.nth traced 2 in
  let scratch = Filename.concat work (spec.name ^ "-layers") in
  Daemon.rm_rf scratch;
  let sub name = let d = Filename.concat scratch name in Daemon.mkdir_p d; d in
  let snapshot_every = if spec.restart then 1024 else 0 in
  let recover =
    let machine_size = spec.machine_size / max 1 spec.shards in
    Layers.recover
      (List.map (fun dir -> Layers.server_config ~dir ~machine_size ~snapshot_every) last.states)
  in
  let router =
    let flags = [ "--snapshot-every"; "0" ] in
    let pids, states = start_shards ~pmp { spec with flags } ~dir:(sub "shards") ~count:2 in
    let m = Layers.router ~dir:(sub "router") ~sockets:(Array.of_list (List.map socket states)) st in
    stop_shards pids states;
    m
  in
  let layers =
    List.concat
      [
        Layers.protocol st expected;
        Layers.dispatch ~dir:(sub "dispatch") ~snapshot_every st ~hi:(st.prefill + spec.closed);
        Layers.netbuf st expected;
        Layers.cluster st;
        Layers.load_index st;
        Layers.wal ~dir:(sub "wal") st;
        Layers.snapshot ~dir:(sub "snapshot") st final_ref;
        recover;
        router;
        Layers.fed_index st;
      ]
  in
  let value name = (List.find (fun m -> m.Report.name = name) layers).Report.value in
  let server_side =
    (if spec.shards > 0 then value "router.handle_ns" else value "server.dispatch_ns")
    +. value "netbuf.rtt_ns"
  in
  let scraped name = scrape last.metrics_text name in
  let max_rate =
    match spec.ladder with Some rungs -> ladder ~pmp ~work spec st expected rungs | None -> 0.0
  in
  Daemon.rm_rf scratch;
  Daemon.rm_rf dir;
  Report.write_chrome trace_file;
  Printf.printf "# %s: Chrome trace in %s\n" spec.name trace_file;
  {
    metrics =
      layers
      @ [
          Report.metric "wal.group_size" "records"
            (scraped "pmpd_wal_group_size_sum" /. Float.max 1.0 (scraped "pmpd_wal_group_size_count"));
          Report.metric "wal.fsyncs_per_kreq" "count"
            (1000.0 *. scraped "pmpd_fsync_total" /. float_of_int n);
          Report.metric "cluster.load_ratio" "ratio"
            (float_of_int last.final.Cluster.peak_load /. float_of_int (max 1 st.peak_lstar));
          Report.metric "setup_wall_s" "s" (median_of rounds (fun r -> r.setup)) ~samples:6;
          Report.metric "cpu_us_per_req" "us" (median_of rounds (fun r -> r.cpu_us)) ~samples:6;
          Report.metric "host.ref_loop_ms" "ms" (median_of rounds (fun r -> r.ref_ms)) ~samples:6;
          Report.metric "throughput_rps" "1/s" untraced_rps ~samples:3;
          Report.metric "p50_us" "us" (median_of rounds (fun r -> r.p50)) ~samples:(6 * spec.open_ops);
          Report.metric "p99_us" "us" (median_of rounds (fun r -> r.p99)) ~samples:(6 * spec.open_ops);
          Report.metric "max_rate_rps" "1/s" max_rate;
          Report.metric "unattributed_ns" "ns" ((1e9 /. untraced_rps) -. server_side) ~samples:3;
          Report.metric "trace.overhead" "ratio"
            (untraced_rps /. median_of traced (fun r -> r.throughput)) ~samples:3;
        ];
    attempted = 6 * n;
    failed = failures rounds;
  }

(* ------------------------------------------------------------------ *)
(* smoke                                                               *)

(* Every workload at a few hundred ops with all checks on, plus proof
   that the checker catches a wrong answer: one round of churn-write
   against a reference with one placement corrupted must fail. *)
let smoke ~pmp ~work =
  let spec = smoke_spec (List.hd specs) in
  let st, _, expected = prepare spec ~seed:1 in
  let corrupt = Array.copy expected in
  let victim = ref (-1) in
  Array.iteri
    (fun i r ->
      match r with
      | Protocol.Placed (id, p) when !victim < 0 && p.Protocol.base > 0 ->
          victim := i;
          corrupt.(i) <- Protocol.Placed (id, { p with Protocol.base = p.Protocol.base - p.Protocol.size })
      | _ -> ())
    expected;
  let n = Stream.length st in
  let r =
    measured_round ~pmp ~dir:(Filename.concat work "corrupt") spec st corrupt (Conn.replies n)
      (Array.make n 0)
  in
  Daemon.rm_rf (Filename.concat work "corrupt");
  if r.failed = 0 then begin
    prerr_endline "pmpbench: smoke: a corrupted reference placement went unnoticed";
    exit 1
  end;
  Printf.printf "# smoke: corrupted reference placement at op %d caught (%s)\n" !victim r.error;
  List.map
    (fun s ->
      let o = run_measured ~pmp ~work ~seconds:0.0 ~min_rounds:1 (smoke_spec s) ~seed:1 in
      (s.name, o))
    specs

(* ------------------------------------------------------------------ *)
(* command line                                                        *)

let print_outcome ~workload o =
  List.iter (Report.print_metric ~workload) o.metrics;
  flush stdout

let record out ~workload ~seed ~trace json =
  match out with
  | None -> ()
  | Some path ->
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
          Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"result\": %s}\n"
            workload seed (if trace then 1 else 0) json)

(* Daemon state, logs and Chrome traces; relative, so socket paths stay
   short wherever the checkout lives. *)
let work = "_pmpbench"

let run_cmd workload seed seconds trace pmp out smoke_mode =
  if not (Sys.file_exists pmp) then begin
    Printf.eprintf "pmpbench: %s not found; build it first (dune build ./bin/pmp.exe)\n" pmp;
    exit 2
  end;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Daemon.mkdir_p work;
  let chosen =
    match workload with
    | None -> specs
    | Some w -> (
        match List.find_opt (fun s -> s.name = w) specs with
        | Some s -> [ s ]
        | None ->
            Printf.eprintf "pmpbench: unknown workload %s (one of %s)\n" w
              (String.concat ", " (List.map (fun s -> s.name) specs));
            exit 2)
  in
  let results =
    try
      if smoke_mode then smoke ~pmp ~work
      else
        List.map
          (fun s ->
            let o =
              if trace then
                run_traced ~pmp ~work ~trace_file:(Filename.concat work ("trace-" ^ s.name ^ ".json")) s ~seed
              else run_measured ~pmp ~work ~seconds ~min_rounds:3 s ~seed
            in
            print_outcome ~workload:s.name o;
            (s.name, o))
          chosen
    with e ->
      Printf.eprintf "pmpbench: %s\n"
        (match e with Conn.Failed m | Failure m -> m | e -> Printexc.to_string e);
      exit 1
  in
  let failed = List.fold_left (fun a (_, o) -> a + o.failed) 0 results in
  let attempted = List.fold_left (fun a (_, o) -> a + o.attempted) 0 results in
  let metrics =
    match results with
    | [ (_, o) ] -> o.metrics
    | _ ->
        List.concat_map
          (fun (w, o) -> List.map (fun m -> { m with Report.name = w ^ "/" ^ m.Report.name }) o.metrics)
          results
  in
  let correct = failed = 0 in
  let json = Report.result_json ~correct ~attempted ~failed (if correct then metrics else []) in
  (match results with
  | [ (w, _) ] -> record out ~workload:w ~seed ~trace json
  | _ -> ());
  print_endline json;
  if not correct then exit 1

open Cmdliner

let run_term =
  let workload =
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME"
           ~doc:"Run one workload: churn-write, query-mostly, fed-churn or restart. Default: all four.")
  and seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Seed of the request streams.")
  and seconds =
    Arg.(value & opt float 20.0 & info [ "seconds" ] ~docv:"S"
           ~doc:"Repeat measured rounds (at least three) until this many seconds have passed.")
  and trace =
    Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1"
           ~doc:"1: measure the per-layer metrics instead and write a Chrome trace to _pmpbench/trace-NAME.json.")
  and pmp =
    Arg.(value & opt string "_build/default/bin/pmp.exe" & info [ "pmp" ] ~docv:"EXE"
           ~doc:"The pmp binary to spawn.")
  and out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Append the result, tagged with workload and seed, to this file (input to compare).")
  and smoke_mode =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"All four workloads at a few hundred ops with every check on, in a few seconds.")
  in
  Term.(
    const (fun w s sec t p o sm -> run_cmd w s sec (t <> 0) p o sm)
    $ workload $ seed $ seconds $ trace $ pmp $ out $ smoke_mode)

let compare_cmd =
  let file n = Arg.(required & pos n (some file) None & info [] ~docv:(if n = 0 then "A" else "B")) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare two sets of recorded runs (--out files) against the bounds in BENCHMARK.json, one row per workload.")
    Term.(const (fun a b -> Stdlib.exit (Compare.run ~bounds:"BENCHMARK.json" a b)) $ file 0 $ file 1)

let () =
  let info = Cmd.info "pmpbench" ~doc:"End-to-end benchmark of pmpd." in
  exit (Cmd.eval (Cmd.group ~default:run_term info [ compare_cmd ]))
