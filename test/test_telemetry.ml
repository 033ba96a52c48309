(* Telemetry: the probe's counters against the engine's own accounting,
   golden trace snapshots under a fake clock, the JSONL round-trip, and
   the metrics/registry primitives. *)

module Machine = Pmp_machine.Machine
module Generators = Pmp_workload.Generators
module Realloc = Pmp_core.Realloc
module Engine = Pmp_sim.Engine
module Metrics = Pmp_telemetry.Metrics
module Probe = Pmp_telemetry.Probe
module Tracer = Pmp_telemetry.Tracer

(* --- instruments -------------------------------------------------- *)

let test_log_bounds () =
  let b = Metrics.log_bounds ~start:1.0 ~ratio:2.0 ~count:4 in
  Alcotest.(check (array (float 1e-9))) "doubling" [| 1.0; 2.0; 4.0; 8.0 |] b

let test_histogram () =
  let h = Metrics.Histogram.make (Metrics.log_bounds ~start:1.0 ~ratio:2.0 ~count:3) in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 1.0; 3.0; 100.0 ];
  Alcotest.(check int) "count" 4 (Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 104.5 (Metrics.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Metrics.Histogram.max_seen h);
  (* cumulative buckets: le=1 -> 2, le=2 -> 2, le=4 -> 3, +Inf -> 4 *)
  Alcotest.(check (list (pair (float 1e-9) int)))
    "buckets"
    [ (1.0, 2); (2.0, 2); (4.0, 3); (infinity, 4) ]
    (Metrics.Histogram.buckets h)

let test_registry_duplicate () =
  let reg = Metrics.Registry.create () in
  let _ = Metrics.Registry.counter reg "x_total" in
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Registry: duplicate instrument \"x_total\"")
    (fun () -> ignore (Metrics.Registry.counter reg "x_total"))

let test_prometheus_dump () =
  let reg = Metrics.Registry.create () in
  let c = Metrics.Registry.counter reg ~help:"things" "t_total" in
  let g = Metrics.Registry.gauge reg "t_gauge" in
  Metrics.Counter.inc c 3;
  Metrics.Gauge.set g 7.0;
  Metrics.Gauge.set g 2.0;
  let dump = Metrics.prometheus reg in
  Alcotest.(check string) "text"
    "# HELP t_total things\n# TYPE t_total counter\nt_total 3\n\
     # TYPE t_gauge gauge\nt_gauge 2\nt_gauge_max 7\n"
    dump

(* --- labelled series ---------------------------------------------- *)

let test_escape_label () =
  Alcotest.(check string) "clean passes through" "submit"
    (Metrics.escape_label "submit");
  Alcotest.(check string) "quote" "say \\\"hi\\\"" (Metrics.escape_label "say \"hi\"");
  Alcotest.(check string) "backslash" "a\\\\b" (Metrics.escape_label "a\\b");
  Alcotest.(check string) "newline" "a\\nb" (Metrics.escape_label "a\nb")

let test_registry_duplicate_labels () =
  let reg = Metrics.Registry.create () in
  let _ = Metrics.Registry.counter reg ~labels:[ ("op", "submit") ] "x_total" in
  (* same name, different labels: a distinct series, fine *)
  let _ = Metrics.Registry.counter reg ~labels:[ ("op", "finish") ] "x_total" in
  Alcotest.check_raises "duplicate (name, labels)"
    (Invalid_argument
       "Registry: duplicate instrument \"x_total\"{op=\"submit\"}")
    (fun () ->
      ignore (Metrics.Registry.counter reg ~labels:[ ("op", "submit") ] "x_total"))

let labelled_dump () =
  let reg = Metrics.Registry.create () in
  let a = Metrics.Registry.counter reg ~help:"ops" ~labels:[ ("op", "submit") ] "ops_total" in
  let b = Metrics.Registry.counter reg ~labels:[ ("op", "finish") ] "ops_total" in
  let h =
    Metrics.Registry.histogram reg ~labels:[ ("stage", "fsync") ] "lat"
      [| 1.0; 2.0 |]
  in
  Metrics.Counter.inc a 2;
  Metrics.Counter.inc b 1;
  Metrics.Histogram.observe h 1.5;
  Metrics.prometheus reg

let expected_labelled_dump =
  "# HELP ops_total ops\n# TYPE ops_total counter\n\
   ops_total{op=\"submit\"} 2\n\
   ops_total{op=\"finish\"} 1\n\
   # TYPE lat histogram\n\
   lat_bucket{stage=\"fsync\",le=\"1\"} 0\n\
   lat_bucket{stage=\"fsync\",le=\"2\"} 1\n\
   lat_bucket{stage=\"fsync\",le=\"+Inf\"} 1\n\
   lat_sum{stage=\"fsync\"} 1.5\n\
   lat_count{stage=\"fsync\"} 1\n"

(* HELP/TYPE once per name, series in registration order, le rendered
   last — and the whole thing byte-stable run to run *)
let test_prometheus_labels () =
  Alcotest.(check string) "labelled dump" expected_labelled_dump (labelled_dump ());
  Alcotest.(check string) "byte-stable" (labelled_dump ()) (labelled_dump ())

(* --- quantile estimation ------------------------------------------ *)

let test_bucket_ceil_matches_verdict () =
  (* the scenario gates pinned their buckets before the rule moved into
     the telemetry layer; the shared function must be bit-identical *)
  let check x =
    let expected =
      (* the historical Verdict.bucket definition, verbatim *)
      if x <= 1.0 then 1.0
      else begin
        let rec up b = if x <= b *. (1.0 +. 1e-9) then b else up (b *. 1.25) in
        up 1.0
      end
    in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "bucket %g" x)
      expected
      (Pmp_scenario.Verdict.bucket x)
  in
  List.iter check [ 0.0; 0.5; 1.0; 1.0000000001; 1.2; 1.25; 1.5625; 2.0; 7.3; 100.0; 1e6 ]

let test_quantile_estimator () =
  let h = Metrics.Histogram.make (Metrics.log_bounds ~start:1.0 ~ratio:2.0 ~count:10) in
  Alcotest.(check (float 0.0)) "empty" 0.0 (Metrics.Histogram.quantile h 0.5);
  for _ = 1 to 100 do
    Metrics.Histogram.observe h 3.0
  done;
  (* everything sits in the (2,4] bucket: every quantile lands inside it *)
  let q50 = Metrics.Histogram.quantile h 0.5 in
  Alcotest.(check bool) "p50 within covering bucket" true (q50 > 2.0 && q50 <= 4.0);
  let q99 = Metrics.Histogram.quantile h 0.99 in
  Alcotest.(check bool) "monotone in q" true (q99 >= q50);
  Alcotest.(check bool) "clamped above" true
    (Metrics.Histogram.quantile h 2.0 <= 4.0);
  (* first-bucket mass reports the first bound *)
  let lo = Metrics.Histogram.make [| 1.0; 2.0 |] in
  Metrics.Histogram.observe lo 0.5;
  Alcotest.(check (float 0.0)) "first bucket" 1.0 (Metrics.Histogram.quantile lo 0.9);
  (* overflow mass interpolates toward the max seen *)
  let hi = Metrics.Histogram.make [| 1.0 |] in
  Metrics.Histogram.observe hi 50.0;
  Metrics.Histogram.observe hi 100.0;
  let q = Metrics.Histogram.quantile hi 1.0 in
  Alcotest.(check bool) "overflow caps at max_seen" true (q > 1.0 && q <= 100.0)

let prop_quantile_bounded =
  QCheck.Test.make ~count:200 ~name:"quantile lies within observed range"
    QCheck.(pair (list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1e4)) (float_bound_exclusive 1.0))
    (fun (xs, q) ->
      let xs = List.map (fun x -> Float.abs x +. 0.001) xs in
      let h = Metrics.Histogram.make (Metrics.log_bounds ~start:0.01 ~ratio:2.0 ~count:24) in
      List.iter (Metrics.Histogram.observe h) xs;
      let v = Metrics.Histogram.quantile h q in
      let mx = List.fold_left Float.max 0.0 xs in
      (* the estimate never leaves the covering bucket, whose upper
         bound is at most one ratio step above the largest value (or
         the first bound, for values below it) *)
      v >= 0.0 && v <= Float.max 0.01 (2.0 *. mx) +. 1e-9)

(* --- probe vs engine accounting ----------------------------------- *)

(* One probe shared by the allocator and the engine must agree with the
   engine's own result record: repack counts, moved tasks, traffic, and
   one arrival/departure recorded per event. *)
let prop_counters_match_engine =
  QCheck.Test.make ~count:60 ~name:"probe counters == Engine.result"
    QCheck.(pair (Helpers.seq_params ~max_levels:5 ()) (int_range 1 4))
    (fun ((levels, seed, steps), d) ->
      let machine_size = 1 lsl levels in
      let seq = Helpers.random_sequence ~seed ~machine_size ~steps in
      let machine = Machine.create machine_size in
      let probe = Probe.create ~clock:(fun () -> 0.0) () in
      let alloc =
        Pmp_core.Periodic.create ~force_copies:true ~probe machine
          ~d:(Realloc.Budget d)
      in
      let topology = Pmp_machine.Topology.create Pmp_machine.Topology.Tree machine in
      let cost = Pmp_sim.Cost.make topology in
      let r = Engine.run ~check:true ~cost ~telemetry:probe alloc seq in
      Probe.repacks probe = r.Engine.realloc_events
      && Probe.tasks_moved probe = r.Engine.tasks_moved
      && Probe.migration_traffic probe = r.Engine.migration_traffic
      && Probe.arrivals probe + Probe.departures probe = r.Engine.events
      && Probe.max_load_seen probe = r.Engine.max_load)

(* --- golden snapshots under a constant clock ---------------------- *)

let figure1_jsonl () =
  let machine = Machine.create 4 in
  let buf = Buffer.create 1024 in
  let tracer = Tracer.to_buffer Tracer.Jsonl buf in
  let probe = Probe.create ~clock:(fun () -> 0.0) ~tracer () in
  let alloc = Pmp_core.Greedy.create ~probe machine in
  let _ = Engine.run ~telemetry:probe alloc (Generators.figure1 ()) in
  Tracer.close tracer;
  Buffer.contents buf

let expected_jsonl =
  "{\"seq\":0,\"kind\":\"arrive\",\"task\":1,\"size\":1,\"placement\":\"copy0:[0..0]\",\"moves\":0,\"traffic\":0,\"load\":1,\"lstar\":1,\"active\":1,\"ts\":0.000000,\"dur\":0.000000,\"oracle\":\"\"}\n\
   {\"seq\":1,\"kind\":\"arrive\",\"task\":2,\"size\":1,\"placement\":\"copy0:[1..1]\",\"moves\":0,\"traffic\":0,\"load\":1,\"lstar\":1,\"active\":2,\"ts\":0.000000,\"dur\":0.000000,\"oracle\":\"\"}\n\
   {\"seq\":2,\"kind\":\"arrive\",\"task\":3,\"size\":1,\"placement\":\"copy0:[2..2]\",\"moves\":0,\"traffic\":0,\"load\":1,\"lstar\":1,\"active\":3,\"ts\":0.000000,\"dur\":0.000000,\"oracle\":\"\"}\n\
   {\"seq\":3,\"kind\":\"arrive\",\"task\":4,\"size\":1,\"placement\":\"copy0:[3..3]\",\"moves\":0,\"traffic\":0,\"load\":1,\"lstar\":1,\"active\":4,\"ts\":0.000000,\"dur\":0.000000,\"oracle\":\"\"}\n\
   {\"seq\":4,\"kind\":\"depart\",\"task\":2,\"size\":0,\"placement\":\"\",\"moves\":0,\"traffic\":0,\"load\":1,\"lstar\":1,\"active\":3,\"ts\":0.000000,\"dur\":0.000000,\"oracle\":\"\"}\n\
   {\"seq\":5,\"kind\":\"depart\",\"task\":4,\"size\":0,\"placement\":\"\",\"moves\":0,\"traffic\":0,\"load\":1,\"lstar\":1,\"active\":2,\"ts\":0.000000,\"dur\":0.000000,\"oracle\":\"\"}\n\
   {\"seq\":6,\"kind\":\"arrive\",\"task\":5,\"size\":2,\"placement\":\"copy0:[0..1]\",\"moves\":0,\"traffic\":0,\"load\":2,\"lstar\":1,\"active\":3,\"ts\":0.000000,\"dur\":0.000000,\"oracle\":\"\"}\n"

let test_golden_jsonl () =
  Alcotest.(check string) "figure1 JSONL" expected_jsonl (figure1_jsonl ())

let test_golden_chrome () =
  let machine = Machine.create 4 in
  let buf = Buffer.create 1024 in
  let tracer = Tracer.to_buffer Tracer.Chrome buf in
  let probe = Probe.create ~clock:(fun () -> 0.0) ~tracer () in
  let alloc = Pmp_core.Greedy.create ~probe machine in
  let _ = Engine.run ~telemetry:probe alloc (Generators.figure1 ()) in
  Tracer.close tracer;
  Tracer.close tracer;
  (* idempotent *)
  let s = Buffer.contents buf in
  Alcotest.(check bool) "array header" true (String.length s > 2 && s.[0] = '[');
  Alcotest.(check string) "array trailer" "\n]\n"
    (String.sub s (String.length s - 3) 3);
  let prefix = "{\"name\":\"arrive #1 (1 PE)\",\"cat\":\"arrive\",\"ph\":\"X\"" in
  Alcotest.(check string) "first slice" prefix
    (String.sub s 2 (String.length prefix));
  (* 7 X slices + 7 C counter samples between the brackets *)
  let lines = String.split_on_char '\n' s in
  let records =
    List.filter (fun l -> String.length l > 0 && l.[0] = '{') lines
  in
  Alcotest.(check int) "record count" 14 (List.length records)

(* --- JSONL round-trip --------------------------------------------- *)

let test_jsonl_roundtrip () =
  let path = Filename.temp_file "pmp_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (figure1_jsonl ());
      close_out oc;
      match Tracer.read_file path with
      | Error e -> Alcotest.failf "read_file: %s" e
      | Ok records ->
          Alcotest.(check int) "count" 7 (List.length records);
          let r0 = List.hd records in
          Alcotest.(check string) "kind" "arrive" (Tracer.kind_to_string r0.Tracer.kind);
          Alcotest.(check int) "task" 1 r0.Tracer.task;
          Alcotest.(check int) "size" 1 r0.Tracer.size;
          Alcotest.(check string) "placement" "copy0:[0..0]" r0.Tracer.placement;
          let last = List.nth records 6 in
          Alcotest.(check int) "final load" 2 last.Tracer.load;
          Alcotest.(check int) "final active" 3 last.Tracer.active)

let test_parse_line_errors () =
  (match Tracer.parse_line "{\"seq\":1,\"kind\":\"arrive\"}" with
  | Ok r -> Alcotest.(check int) "defaults task" (-1) r.Tracer.task
  | Error e -> Alcotest.failf "minimal record rejected: %s" e);
  match Tracer.parse_line "not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

(* --- the oracle verdict reaches the trace ------------------------- *)

let test_oracle_verdict_in_trace () =
  let machine = Machine.create 4 in
  let buf = Buffer.create 1024 in
  let tracer = Tracer.to_buffer Tracer.Jsonl buf in
  let probe = Probe.create ~clock:(fun () -> 0.0) ~tracer () in
  let alloc = Pmp_core.Greedy.create ~probe machine in
  let spec =
    {
      Pmp_oracle.Oracle.bound = Pmp_oracle.Oracle.Exact;
      budget = None;
      disjoint_copies = false;
    }
  in
  (* greedy is not optimal on figure1: the oracle must fire and the
     violating event's record must carry the verdict *)
  (match
     Engine.run ~oracle:spec ~telemetry:probe alloc (Generators.figure1 ())
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected an oracle violation");
  Tracer.close tracer;
  let lines =
    List.filter
      (fun l -> String.length l > 0)
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  let last = List.nth lines (List.length lines - 1) in
  match Tracer.parse_line last with
  | Error e -> Alcotest.failf "last line unparseable: %s" e
  | Ok r ->
      Alcotest.(check bool) "verdict text present" true
        (String.length r.Tracer.oracle > 0 && r.Tracer.oracle <> "ok")

(* --- noop probe is inert ------------------------------------------ *)

let test_noop_probe () =
  let machine = Machine.create 8 in
  let alloc = Pmp_core.Greedy.create machine in
  let seq = Helpers.random_sequence ~seed:5 ~machine_size:8 ~steps:100 in
  let r = Engine.run ~telemetry:Probe.noop alloc seq in
  Alcotest.(check int) "events" 100 r.Engine.events;
  Alcotest.(check int) "noop counted nothing" 0 (Probe.arrivals Probe.noop);
  Alcotest.(check (float 0.0)) "noop clock" 0.0 (Probe.elapsed Probe.noop)

(* --- satellite: metrics hazards ----------------------------------- *)

let test_imbalance_all_idle_is_nan () =
  let machine = Machine.create 8 in
  let b = Pmp_workload.Sequence.Builder.create () in
  let t = Pmp_workload.Sequence.Builder.arrive_fresh b ~size:2 in
  Pmp_workload.Sequence.Builder.depart b t.Pmp_workload.Task.id;
  let seq = Pmp_workload.Sequence.Builder.seal b in
  let r = Engine.run (Pmp_core.Greedy.create machine) seq in
  let s = Pmp_sim.Metrics.summarize r in
  Alcotest.(check bool) "all-idle imbalance is nan" true
    (Float.is_nan s.Pmp_sim.Metrics.imbalance)

let test_fragmentation_empty_is_nan () =
  let machine = Machine.create 8 in
  let seq = Pmp_workload.Sequence.Builder.(seal (create ())) in
  let r = Engine.run (Pmp_core.Greedy.create machine) seq in
  Alcotest.(check bool) "empty trajectory is nan" true
    (Float.is_nan (Pmp_sim.Metrics.fragmentation r))


(* --- merging per-shard Prometheus dumps --------------------------- *)

(* Build K registries through the identical registration sequence the
   sharded server uses — same names, same order, a distinguishing
   shard label — and check the merge against hand-computed output. *)
let shard_regs k fill =
  List.init k (fun s ->
      let reg = Metrics.Registry.create () in
      fill reg s;
      Metrics.prometheus reg)

let test_merge_single_dump_identity () =
  let dumps =
    shard_regs 1 (fun reg s ->
        let c =
          Metrics.Registry.counter reg
            ~labels:[ ("shard", string_of_int s) ]
            ~help:"h" "pmpd_requests_total"
        in
        Metrics.Counter.inc c 7)
  in
  Alcotest.(check string) "single dump verbatim" (List.hd dumps)
    (Metrics.merge_prometheus dumps);
  Alcotest.(check string) "empty list" "" (Metrics.merge_prometheus [])

let test_merge_sums_and_maxes () =
  let dumps =
    shard_regs 4 (fun reg s ->
        let l = [ ("shard", string_of_int s) ] in
        let c = Metrics.Registry.counter reg ~labels:l "pmpd_requests_total" in
        Metrics.Counter.inc c (10 + s);
        let g = Metrics.Registry.gauge reg ~labels:l "pmpd_max_load" in
        Metrics.Gauge.set g (float_of_int (2 * s)))
  in
  let merged =
    Metrics.merge_prometheus ~max_names:[ "pmpd_max_load" ] dumps
  in
  let expect =
    "# TYPE pmpd_requests_total counter\n" ^ "pmpd_requests_total 46\n"
    ^ "# TYPE pmpd_max_load gauge\n" ^ "pmpd_max_load 6\n"
    ^ "pmpd_max_load_max 6\n"
  in
  Alcotest.(check string) "sum counters, max the max-load gauge" expect merged

(* Gauge [_max] high-water lines are maxed by their suffix even when
   the base name sums — a per-shard peak is not additive. *)
let test_merge_max_suffix () =
  let dumps =
    shard_regs 2 (fun reg s ->
        let g =
          Metrics.Registry.gauge reg
            ~labels:[ ("shard", string_of_int s) ]
            "pmpd_queued_tasks"
        in
        Metrics.Gauge.set g (float_of_int (5 * (s + 1)));
        Metrics.Gauge.set g (float_of_int (s + 1)))
  in
  let merged = Metrics.merge_prometheus dumps in
  let expect =
    "# TYPE pmpd_queued_tasks gauge\n" ^ "pmpd_queued_tasks 3\n"
    ^ "pmpd_queued_tasks_max 10\n"
  in
  Alcotest.(check string) "levels sum, high-water maxes" expect merged

let test_merge_keeps_shard_series () =
  let dumps =
    shard_regs 2 (fun reg s ->
        let g =
          Metrics.Registry.gauge reg
            ~labels:[ ("shard", string_of_int s) ]
            "pmpd_shard_queue_depth"
        in
        Metrics.Gauge.set g (float_of_int (s + 1)))
  in
  let merged = Metrics.merge_prometheus dumps in
  let expect =
    "# TYPE pmpd_shard_queue_depth gauge\n"
    ^ "pmpd_shard_queue_depth{shard=\"0\"} 1\n"
    ^ "pmpd_shard_queue_depth{shard=\"1\"} 2\n"
    ^ "pmpd_shard_queue_depth_max{shard=\"0\"} 1\n"
    ^ "pmpd_shard_queue_depth_max{shard=\"1\"} 2\n"
  in
  Alcotest.(check string) "per-shard series pass through, in shard order"
    expect merged

(* The per-shard passthrough is a prefix list, not a hard-coded name:
   fed_shard_* rides the default list next to pmpd_shard_*, an unknown
   family merges positionally like any other gauge, and callers can
   keep a family of their own with [~keep_prefixes]. *)
let test_merge_keep_prefixes () =
  let mk name =
    shard_regs 2 (fun reg s ->
        let g =
          Metrics.Registry.gauge reg
            ~labels:[ ("shard", string_of_int s) ]
            name
        in
        Metrics.Gauge.set g (float_of_int (s + 1)))
  in
  let kept name =
    Printf.sprintf
      "# TYPE %s gauge\n\
       %s{shard=\"0\"} 1\n\
       %s{shard=\"1\"} 2\n\
       %s_max{shard=\"0\"} 1\n\
       %s_max{shard=\"1\"} 2\n"
      name name name name name
  in
  Alcotest.(check string) "fed_shard_* passes through by default"
    (kept "fed_shard_load")
    (Metrics.merge_prometheus (mk "fed_shard_load"));
  Alcotest.(check string) "an unknown prefix sums like any gauge"
    ("# TYPE acme_shard_depth gauge\n" ^ "acme_shard_depth 3\n"
   ^ "acme_shard_depth_max 2\n")
    (Metrics.merge_prometheus (mk "acme_shard_depth"));
  Alcotest.(check string) "~keep_prefixes keeps it per shard"
    (kept "acme_shard_depth")
    (Metrics.merge_prometheus ~keep_prefixes:[ "acme_" ]
       (mk "acme_shard_depth"))

(* Other labels survive the shard-label strip, and the merged dump
   preserves registration order line for line — what keeps [pmp top]
   and the Prometheus-order contract working unchanged. *)
let test_merge_label_strip_and_order () =
  let dumps =
    shard_regs 2 (fun reg s ->
        let l = [ ("shard", string_of_int s) ] in
        let a = Metrics.Registry.counter reg ~labels:l "aaa_total" in
        Metrics.Counter.inc a (s + 1);
        let b =
          Metrics.Registry.counter reg
            ~labels:(l @ [ ("dir", "out") ])
            "bbb_total"
        in
        Metrics.Counter.inc b (10 * (s + 1)))
  in
  let merged = Metrics.merge_prometheus dumps in
  let expect =
    "# TYPE aaa_total counter\n" ^ "aaa_total 3\n"
    ^ "# TYPE bbb_total counter\n" ^ "bbb_total{dir=\"out\"} 30\n"
  in
  Alcotest.(check string) "labels survive, order preserved" expect merged

(* Dumps whose shapes disagree degrade to concatenation — never
   silently dropped. *)
let test_merge_shape_mismatch () =
  let d1 = "# TYPE a counter\na 1\n" in
  let d2 = "# TYPE a counter\na 2\nb 3\n" in
  Alcotest.(check string) "concatenation fallback" (d1 ^ d2)
    (Metrics.merge_prometheus [ d1; d2 ])

(* The dump reader, on one registry and on a merge of two shards'
   registries (which must read back as their sum): a counter, a gauge,
   a label value holding an escaped quote and a comma, a histogram's
   buckets through +Inf, and the quantile of the traffic between two
   dumps. *)
let test_dump_reader () =
  let module D = Metrics.Dump in
  let shard labels =
    let reg = Metrics.Registry.create () in
    let c = Metrics.Registry.counter reg ~labels "req_total" in
    let g = Metrics.Registry.gauge reg ~labels "depth" in
    let t =
      Metrics.Registry.counter reg
        ~labels:(labels @ [ ("tenant", "a\"b,c") ])
        "tenant_total"
    in
    let h =
      Metrics.Registry.histogram reg
        ~labels:(labels @ [ ("stage", "fsync") ])
        "lat" [| 1.0; 2.0; 4.0 |]
    in
    Metrics.Counter.inc c 3;
    Metrics.Gauge.set g 5.0;
    Metrics.Counter.inc t 2;
    Metrics.Histogram.observe h 0.5;
    let before = Metrics.prometheus reg in
    for _ = 1 to 10 do
      Metrics.Histogram.observe h 3.0
    done;
    (before, Metrics.prometheus reg)
  in
  let check ~label k (before, after) =
    let value ?labels name = D.value ?labels after name in
    let num = Alcotest.(option (float 0.0)) in
    let times x = Some (x *. float_of_int k) in
    Alcotest.check num (label ^ ": counter") (times 3.0) (value "req_total");
    Alcotest.check num (label ^ ": gauge") (times 5.0) (value "depth");
    Alcotest.check num (label ^ ": escaped label value") (times 2.0)
      (value ~labels:[ ("tenant", "a\"b,c") ] "tenant_total");
    Alcotest.check num (label ^ ": label mismatch") None
      (value ~labels:[ ("tenant", "a") ] "tenant_total");
    let stage = [ ("stage", "fsync") ] in
    Alcotest.(check (list (pair (float 0.0) int)))
      (label ^ ": buckets")
      [ (1.0, k); (2.0, k); (4.0, 11 * k); (infinity, 11 * k) ]
      (D.buckets ~labels:stage after "lat");
    (match D.quantile ~labels:stage ~before ~after "lat" 0.5 with
    | Some (q, n) ->
        Alcotest.(check int) (label ^ ": traffic between the dumps") (10 * k) n;
        if not (q > 2.0 && q <= 4.0) then
          Alcotest.failf "%s: p50 %g outside the (2, 4] bucket" label q
    | None -> Alcotest.failf "%s: no traffic between the dumps" label);
    Alcotest.(check (option (pair (float 0.0) int)))
      (label ^ ": no traffic") None
      (D.quantile ~labels:stage ~before:after ~after "lat" 0.5)
  in
  check ~label:"one registry" 1 (shard []);
  let shards = List.init 2 (fun s -> shard [ ("shard", string_of_int s) ]) in
  check ~label:"merged shards" 2
    ( Metrics.merge_prometheus (List.map fst shards),
      Metrics.merge_prometheus (List.map snd shards) )

let suite =
  [
    Alcotest.test_case "log_bounds" `Quick test_log_bounds;
    Alcotest.test_case "histogram buckets" `Quick test_histogram;
    Alcotest.test_case "registry duplicate" `Quick test_registry_duplicate;
    Alcotest.test_case "prometheus dump" `Quick test_prometheus_dump;
    Alcotest.test_case "escape_label" `Quick test_escape_label;
    Alcotest.test_case "registry duplicate labels" `Quick
      test_registry_duplicate_labels;
    Alcotest.test_case "prometheus labelled dump" `Quick test_prometheus_labels;
    Alcotest.test_case "bucket_ceil == verdict bucket" `Quick
      test_bucket_ceil_matches_verdict;
    Alcotest.test_case "quantile estimator" `Quick test_quantile_estimator;
    Alcotest.test_case "golden jsonl" `Quick test_golden_jsonl;
    Alcotest.test_case "golden chrome" `Quick test_golden_chrome;
    Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "parse_line" `Quick test_parse_line_errors;
    Alcotest.test_case "oracle verdict in trace" `Quick test_oracle_verdict_in_trace;
    Alcotest.test_case "noop probe" `Quick test_noop_probe;
    Alcotest.test_case "imbalance all-idle nan" `Quick test_imbalance_all_idle_is_nan;
    Alcotest.test_case "fragmentation empty nan" `Quick test_fragmentation_empty_is_nan;
    Alcotest.test_case "merge single dump" `Quick test_merge_single_dump_identity;
    Alcotest.test_case "merge sums and maxes" `Quick test_merge_sums_and_maxes;
    Alcotest.test_case "merge max suffix" `Quick test_merge_max_suffix;
    Alcotest.test_case "merge keeps shard series" `Quick test_merge_keeps_shard_series;
    Alcotest.test_case "merge keep-prefix list" `Quick test_merge_keep_prefixes;
    Alcotest.test_case "merge strips labels in order" `Quick test_merge_label_strip_and_order;
    Alcotest.test_case "merge shape mismatch" `Quick test_merge_shape_mismatch;
    Alcotest.test_case "dump reader" `Quick test_dump_reader;
  ]
  @ Helpers.qtests [ prop_counters_match_engine; prop_quantile_bounded ]
