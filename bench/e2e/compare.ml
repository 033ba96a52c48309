(* [pmpbench compare A B]: judge run set B against run set A.

   Each file holds result records appended by [--out], one JSON object
   per line. For every workload and every end-to-end metric of the
   benchmark definition, B's median may be worse than A's by at most
   the metric's bound. When either side's own spread (interquartile
   distance over median) exceeds the bound the pair is unresolved,
   unless every run of B beats every run of A. One row per workload;
   exit 1 when any pair regressed. *)

module Json = Pmp_util.Json

let fail fmt = Printf.ksprintf failwith fmt
let member k j = match Json.member k j with Some v -> v | None -> fail "missing %S" k
let num j = match Json.to_float j with Some f -> f | None -> fail "not a number"
let str j = match Json.to_str j with Some s -> s | None -> fail "not a string"
let list j = match Json.to_list j with Some l -> l | None -> fail "not a list"

(* (metric, lower is better, bound) for each end-to-end metric *)
let bounds_of file =
  List.map
    (fun m -> (str (member "name" m), str (member "better" m) = "lower", num (member "bound" m)))
    (list (member "end_to_end" (Json.of_file file)))

(* (workload, metric values) of every untraced record in [file] *)
let records file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map Json.of_string
  |> List.filter (fun r -> num (member "trace" r) = 0.0)
  |> List.map (fun r ->
         let metrics = member "metrics" (member "result" r) in
         ( str (member "workload" r),
           match metrics with
           | Json.Obj kvs -> List.map (fun (k, v) -> (k, num (member "value" v))) kvs
           | _ -> fail "metrics is not an object" ))

let values recs workload metric =
  Array.of_list
    (List.filter_map
       (fun (w, ms) -> if w = workload then List.assoc_opt metric ms else None)
       recs)

type verdict = Same | Better | Regressed | Unresolved | Missing

let verdict_name = function
  | Same -> "ok"
  | Better -> "better"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"
  | Missing -> "missing"

let judge ~lower ~bound a b =
  if Array.length a = 0 || Array.length b = 0 then (Missing, nan)
  else
    let ma = Report.median a and mb = Report.median b in
    let worse = (if lower then mb -. ma else ma -. mb) /. Float.abs ma in
    let beats x y = if lower then x < y else x > y in
    let all_better =
      Array.for_all (fun y -> Array.for_all (fun x -> beats y x) a) b
    in
    if Report.spread a > bound || Report.spread b > bound then
      ((if all_better then Better else Unresolved), worse)
    else if worse > bound then (Regressed, worse)
    else if -.worse > bound then (Better, worse)
    else (Same, worse)

let run ~bounds a b =
  let metrics = bounds_of bounds in
  let ra = records a and rb = records b in
  let workloads =
    List.sort_uniq compare (List.map fst ra @ List.map fst rb)
  in
  let regressed = ref false in
  Printf.printf "# B against A: change in the worse direction, verdict (bounds from %s)\n" bounds;
  List.iter
    (fun w ->
      let cells =
        List.map
          (fun (m, lower, bound) ->
            let v, worse = judge ~lower ~bound (values ra w m) (values rb w m) in
            if v = Regressed then regressed := true;
            Printf.sprintf "%s %+.1f%% %s" m (100.0 *. worse) (verdict_name v))
          metrics
      in
      Printf.printf "%-13s %s\n" w (String.concat " | " cells))
    workloads;
  if !regressed then 1 else 0
