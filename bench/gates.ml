(* The gates of bench/regress.exe, as data. Each bound is defined here
   once, with its reason; the probes echo it into the report from
   here. *)

module Json = Pmp_util.Json

(* allowed growth over the baseline: GC words are deterministic up to
   the OCaml version, wall times are best-of-k and still noisy *)
let tolerance = 0.25

(* recorded at 100-145x on a 2-vCPU Xeon host; 15-27x before index
   adds recombined only the slots they change *)
let min_speedup = 25.0
let min_service_speedup = 5.0

(* group commit must batch: the binary+group service run writes more
   than this many WAL records per fsync (recorded ~16 on a 2-vCPU Xeon
   host), and binary+always exactly one. Both ratios come from counters
   the daemon keeps (pmpd_wal_group_size_sum / pmpd_fsync_total), not
   from a clock, so they gate hard; no fsync at all reads as infinitely
   many records per fsync, which fails. *)
let min_group_records_per_fsync = 2.0

(* the multicore floor: at --domains=4 the sharded event loop must move
   at least this many times the single-domain throughput on the same
   workload (binary+group, four connections either way). A host that
   cannot run four domains in parallel records the probe as skipped,
   and the row reads "not taken". *)
let min_multicore_speedup = 2.0

(* observability must stay near-free: the fully instrumented service
   (per-stage latency histograms + flight recorder) may cost at most
   this factor over the same matrix point with telemetry disabled. A
   wall-clock ratio, so advisory. *)
let max_observability_overhead = 1.05

(* the federation ceiling: a request through the router pays one extra
   socket hop, but the router forwards each client batch as one
   upstream flush per shard, so the shards' group commits amortise as
   they do direct. Recorded at 1.7x the direct binary+group point on a
   2-vCPU Xeon host (three runs); the ceiling leaves room for a busy
   host. Wall-clock, so advisory. *)
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
   words (~3.4k on this trace) and fails the gate. *)
let max_audit_words_per_event = 250.0

(* the start-up ceiling: [Server.create] on a fresh directory builds
   one cluster, whose placement table indexes its own loads, and
   nothing else of size N: a fresh directory recovers nothing, so no
   round trip re-imports it. Recorded 6.4 words/PE at N=16384; one
   load index is ~6 words/PE, so a second index — in the cluster, an
   observer built for an empty WAL tail, or a round trip's re-import
   with its two leaf-load arrays — crosses the ceiling. *)
let max_startup_words_per_pe = 8.0

(* a load-index add recombines only the slots it changes, in place *)
let max_words_per_add = 0.0

(* the WAL ceiling: one checksummed frame per group commit holds a
   record as a varint of id * 2 + kind plus a submit's size, ~3.5 bytes
   at the state runs' ids, and a frame adds a length and a 4-byte CRC
   (and a seq, when it starts a run) per 64 records. Self-framed
   records, each repeating magic, version, length and seq, read ~10.5
   there and fail. *)
let max_wal_bytes_per_record = 5.0

type kind =
  | Same
  | Equal of Json.t
  | At_least of float
  | Above of float
  | At_most of float
  | Drift
  | No_growth

type row = { path : string list; kind : kind; hard : bool }

let hard kind path = { path; kind; hard = true }
let advisory kind path = { path; kind; hard = false }

(* GC words and counts are deterministic under the pinned seed, so they
   gate hard; wall-clock figures warn. *)
let table =
  (* a case's behaviour is fixed by the pinned seed: any drift is a
     functional change smuggled in as a perf change *)
  List.map
    (fun f -> hard Same [ "cases"; "*"; f ])
    [ "events"; "max_load"; "optimal_load"; "ratio" ]
  @ [
      hard Drift [ "cases"; "*"; "setup_words" ];
      hard Drift [ "cases"; "*"; "words_per_event" ];
      advisory Drift [ "cases"; "*"; "norm_ns_per_event" ];
      hard (At_least min_speedup) [ "speedup"; "speedup" ];
      hard (At_most max_audit_words_per_event) [ "audit"; "words_per_event" ];
      hard Drift [ "audit"; "words_per_event" ];
      hard (At_most max_startup_words_per_pe) [ "startup"; "words_per_pe" ];
      (* a daemon's durable state and its recovery work are O(live
         tasks), not O(history) *)
      hard No_growth [ "state"; "runs"; "*"; "snapshot_bytes_per_live_task" ];
      hard No_growth [ "state"; "runs"; "*"; "wal_records_replayed" ];
      hard
        (At_most max_wal_bytes_per_record)
        [ "state"; "runs"; "*"; "wal_bytes_per_record" ];
      hard (At_most max_words_per_add) [ "load_index"; "sizes"; "*"; "words_per_add" ];
      advisory Drift [ "load_index"; "sizes"; "*"; "norm_ns_per_add" ];
      hard (At_least min_service_speedup) [ "service"; "speedup" ];
      hard
        (Above min_group_records_per_fsync)
        [ "service"; "binary_group_records_per_fsync" ];
      hard (Equal (Json.Num 1.0)) [ "service"; "always_records_per_fsync" ];
      hard Drift [ "service"; "words_per_request" ];
      advisory Drift [ "service"; "norm_ns_per_request" ];
      advisory
        (At_most max_observability_overhead)
        [ "service"; "observability_overhead" ];
      hard (At_least min_multicore_speedup) [ "multicore"; "speedup" ];
      (* the routing core's verdict on a scripted workload, through
         Sim, which runs the router's own Route *)
      hard Same [ "federation"; "golden" ];
      (* the live federated run acks every request *)
      hard (At_most 0.0) [ "federation"; "fed_errors" ];
      hard
        (At_least min_requests_per_upstream_batch)
        [ "federation"; "requests_per_upstream_batch" ];
      advisory (At_most max_federation_overhead) [ "federation"; "overhead" ];
      (* every scenario verdict passes on its own, and its deterministic
         projection matches the baseline's *)
      hard (Equal (Json.Bool true)) [ "scenarios"; "*"; "pass" ];
      hard Same [ "scenarios"; "*" ];
    ]

type verdict = Pass | Fail | Not_taken of string

type check = {
  row : row;
  key : string list;
  verdict : verdict;
  detail : string;
}

(* what a path reaches; an object recorded as skipped stops the walk *)
type found = Found of Json.t | Missing | Skipped of string

let rec find j = function
  | _ when Json.member "skipped" j = Some (Json.Bool true) ->
      Skipped
        (Option.value ~default:"no reason recorded"
           (Option.bind (Json.member "reason" j) Json.to_str))
  | [] -> Found j
  | k :: rest -> (
      match Json.member k j with Some v -> find v rest | None -> Missing)

let fields = function Some (Json.Obj o) -> List.map fst o | _ -> []

let rec expand run base = function
  | [] -> [ [] ]
  | step :: rest ->
      let keys =
        if step <> "*" then [ step ]
        else
          let own = fields run in
          match own @ List.filter (fun k -> not (List.mem k own)) (fields base) with
          | [] -> [ "*" ]
          | keys -> keys
      in
      let sub j k = Option.bind j (Json.member k) in
      List.concat_map
        (fun k -> List.map (List.cons k) (expand (sub run k) (sub base k) rest))
        keys

let show = Json.to_string
let same a b = show a = show b

(* a passing value, short *)
let brief = function
  | Json.Num f -> Printf.sprintf "%g" f
  | Json.Obj _ -> "{..}"
  | Json.Arr _ -> "[..]"
  | j -> show j

let number test v =
  match Json.to_float v with Some x -> test x | None -> false

(* a No_growth row: the last entry of its path's [*] against the first *)
let no_growth run path =
  let rec split = function
    | "*" :: suffix -> ([], suffix)
    | step :: rest -> (fun (p, s) -> (step :: p, s)) (split rest)
    | [] -> ([], [])
  in
  let prefix, suffix = split path in
  match find run prefix with
  | Skipped why -> (Not_taken why, "")
  | Found (Json.Obj ((_, first) :: (_ :: _ as rest))) -> (
      let last = snd (List.nth rest (List.length rest - 1)) in
      match (find first suffix, find last suffix) with
      | Found a, Found b ->
          let kept =
            match (Json.to_float a, Json.to_float b) with
            | Some x, Some y -> y <= x
            | _ -> false
          in
          ( (if kept then Pass else Fail),
            Printf.sprintf "%s -> %s (no growth)" (show a) (show b) )
      | _ -> (Fail, "missing from this run"))
  | _ -> (Fail, "fewer than two entries in this run")

let judge ~baseline run row key =
  let test ok bound v =
    if ok v then (Pass, Printf.sprintf "%s (%s)" (brief v) bound)
    else (Fail, Printf.sprintf "%s (%s)" (show v) bound)
  in
  match (row.kind, find run key) with
  | No_growth, _ -> no_growth run key
  | _, Skipped why -> (Not_taken why, "")
  | _, Missing -> (Fail, "missing from this run")
  | Equal e, Found v -> test (same e) ("= " ^ show e) v
  | At_least f, Found v -> test (number (fun x -> x >= f)) (Printf.sprintf ">= %g" f) v
  | Above f, Found v ->
      test (number (fun x -> Float.is_finite x && x > f)) (Printf.sprintf "> %g" f) v
  | At_most f, Found v -> test (number (fun x -> x <= f)) (Printf.sprintf "<= %g" f) v
  | (Same | Drift), Found v -> (
      match Option.map (fun b -> find b key) baseline with
      | None -> (Not_taken "no baseline to compare with", "")
      | Some Missing -> (Not_taken "not in the baseline", "")
      | Some (Skipped why) -> (Not_taken ("skipped in the baseline: " ^ why), "")
      | Some (Found b) -> (
          match (row.kind, Json.to_float b) with
          | Same, _ -> test (same b) ("= baseline " ^ brief b) v
          | _, Some b ->
              let c = b *. (1.0 +. tolerance) in
              test (number (fun x -> x <= c))
                (Printf.sprintf "<= %g, baseline %g + %.0f%%" c b (tolerance *. 100.0))
                v
          | _, None -> (Fail, "the baseline's value is not a number")))

let check ?baseline run =
  List.concat_map
    (fun row ->
      let keys =
        match row.kind with
        | No_growth -> [ row.path ]
        | _ -> expand (Some run) baseline row.path
      in
      List.map
        (fun key ->
          let verdict, detail = judge ~baseline run row key in
          { row; key; verdict; detail })
        keys)
    table

let ok = List.for_all (fun c -> c.verdict <> Fail || not c.row.hard)

let print =
  List.iter (fun c ->
      let key = String.concat "/" c.key in
      match c.verdict with
      | Pass -> Printf.printf "bench-regress: ok        %s %s\n" key c.detail
      | Fail ->
          Printf.printf "bench-regress: %s      %s %s\n"
            (if c.row.hard then "FAIL" else "WARN")
            key c.detail
      | Not_taken why -> Printf.printf "bench-regress: not taken %s: %s\n" key why)
