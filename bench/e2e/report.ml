(* Metrics, summary statistics, the result line and the Chrome trace. *)

module Json = Pmp_util.Json

type metric = { name : string; value : float; unit : string; samples : int }

let metric ?(samples = 1) name unit value = { name; value; unit; samples }

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so spreads computed here and by
   other tools agree. Needs at least two values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  let m = ld + 1 in
  Array.init 3 (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0)

(* Interquartile distance as a share of the median. *)
let spread xs =
  if Array.length xs < 2 then 0.0
  else
    let q = quartiles xs in
    (q.(2) -. q.(0)) /. Float.abs (median xs)

(* [p]-th percentile (0..100) of latencies in ns, reported in us. *)
let percentile_us (lat : int array) ~lo ~hi p =
  Pmp_util.Stats.percentile
    (Array.init (hi - lo) (fun j -> float_of_int lat.(lo + j) /. 1e3))
    p

let print_metric ~workload m =
  Printf.printf "%-13s %-26s %14.6g %-6s (n=%d)\n" workload m.name m.value m.unit
    m.samples

let result_json ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]))
                metrics) );
       ])

(* ------------------------------------------------------------------ *)
(* Chrome trace-event spans, kept in memory and written at the end      *)

type span = { sname : string; cat : string; tid : int; start_ns : int; dur_ns : int; rid : int }

let spans : span list ref = ref []
let origin = Clock.now_ns ()

let span ?(rid = -1) ~cat ~tid sname start_ns dur_ns =
  spans := { sname; cat; tid; start_ns; dur_ns; rid } :: !spans

(* Time [f ()] as one span. *)
let with_span ~cat ~tid name f =
  let t0 = Clock.now_ns () in
  let r = f () in
  span ~cat ~tid name t0 (Clock.now_ns () - t0);
  r

let write_chrome path =
  let us ns = Json.Num (float_of_int ns /. 1e3) in
  let event s =
    Json.Obj
      ([
         ("name", Json.Str s.sname);
         ("cat", Json.Str s.cat);
         ("ph", Json.Str "X");
         ("ts", us (s.start_ns - origin));
         ("dur", us s.dur_ns);
         ("pid", Json.Num 1.0);
         ("tid", Json.Num (float_of_int s.tid));
       ]
      @ if s.rid < 0 then [] else [ ("args", Json.Obj [ ("rid", Json.Num (float_of_int s.rid)) ]) ])
  in
  Json.to_file path (Json.Obj [ ("traceEvents", Json.Arr (List.rev_map event !spans)) ])
