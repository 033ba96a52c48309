(* The gates of bench/regress.exe (bench/gates.ml), judged without
   running a probe: the committed baseline against itself, then runs
   derived from it with one value moved to the edge of a bound, one
   entry deleted or one section skipped. Every test walks the checks
   [Gates.table] expands to, so a row added later is tested here with
   no new test code. *)

module Json = Pmp_util.Json
module Gates = Pmp_gates.Gates

(* dune runtest runs the suite in _build/default/test and copies the
   baseline to its parent (the test stanza's deps); dune exec runs it
   from the repository's root *)
let baseline =
  lazy
    (Json.of_file
       (if Sys.file_exists "BENCH_baseline.json" then "BENCH_baseline.json"
        else "../BENCH_baseline.json"))
let judge run = Gates.check ~baseline:(Lazy.force baseline) run
let name (c : Gates.check) = String.concat "/" c.key

let verdict = function
  | Gates.Pass -> "pass"
  | Gates.Fail -> "fail"
  | Gates.Not_taken why -> "not taken: " ^ why

let verdict_class = function
  | Gates.Not_taken _ -> "not taken"
  | v -> verdict v

let hard_failure (c : Gates.check) = c.verdict = Gates.Fail && c.row.hard

(* [update key f j]: [j] with the value at [key] replaced by [f] of it
   ([None] deletes it) *)
let rec update key f j =
  match (key, j) with
  | [ k ], Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (n, v) -> if n = k then Option.map (fun v -> (n, v)) (f v) else Some (n, v))
           fields)
  | k :: rest, Json.Obj fields ->
      Json.Obj
        (List.map (fun (n, v) -> if n = k then (n, update rest f v) else (n, v)) fields)
  | _ -> Alcotest.failf "no object along %s" (String.concat "/" key)

let set key v = update key (fun _ -> Some v)

let rec find key j =
  match key with
  | [] -> j
  | k :: rest -> (
      match Json.member k j with
      | Some v -> find rest v
      | None -> Alcotest.failf "baseline lacks %s" k)

(* the smallest change to a value that a JSON comparison sees *)
let rec nudge = function
  | Json.Num f -> Json.Num (Float.succ f)
  | Json.Bool b -> Json.Bool (not b)
  | Json.Str s -> Json.Str (s ^ "!")
  | Json.Null -> Json.Num 0.0
  | Json.Arr (x :: rest) -> Json.Arr (nudge x :: rest)
  | Json.Obj ((k, x) :: rest) -> Json.Obj ((k, nudge x) :: rest)
  | Json.Arr [] | Json.Obj [] -> Json.Null

(* where a check reads, the last value there that passes, and the first
   values that fail, as the bound's kind defines them *)
let edges (c : Gates.check) =
  let base = Lazy.force baseline in
  let num f = Json.Num f in
  match c.row.kind with
  | Gates.Same ->
      let b = find c.key base in
      (c.key, b, [ nudge b ])
  | Gates.Equal e -> (c.key, e, [ nudge e ])
  | Gates.At_least f -> (c.key, num f, [ num (Float.pred f) ])
  | Gates.Above f -> (c.key, num (Float.succ f), [ num f; num infinity ])
  | Gates.At_most f -> (c.key, num f, [ num (Float.succ f) ])
  | Gates.Drift -> (
      match Json.to_float (find c.key base) with
      | Some b ->
          let bound = b *. (1.0 +. Gates.tolerance) in
          (c.key, num bound, [ num (Float.succ bound) ])
      | None -> Alcotest.failf "%s: baseline value is not a number" (name c))
  | Gates.No_growth -> (
      (* the last entry of the [*] step against the first *)
      let rec split = function
        | "*" :: suffix -> ([], suffix)
        | step :: rest -> (fun (p, s) -> (step :: p, s)) (split rest)
        | [] -> Alcotest.failf "%s: no * step" (name c)
      in
      let prefix, suffix = split c.key in
      match find prefix base with
      | Json.Obj ((_, first) :: (_ :: _ as rest)) -> (
          let last, _ = List.nth rest (List.length rest - 1) in
          match Json.to_float (find suffix first) with
          | Some a -> (prefix @ (last :: suffix), num a, [ num (Float.succ a) ])
          | None -> Alcotest.failf "%s: not a number" (name c))
      | _ -> Alcotest.failf "%s: fewer than two entries" (name c))

(* [a] is a prefix of [b]; a [*] step matches any field *)
let rec prefix a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a, y :: b -> (x = y || x = "*" || y = "*") && prefix a b

(* a check at [a] reads the value at [b], holds it, or lies inside it *)
let related a b = prefix a b || prefix b a

let test_baseline_against_itself () =
  let checks = judge (Lazy.force baseline) in
  let names p = List.filter_map (fun c -> if p c then Some (name c) else None) checks in
  Alcotest.(check (list string)) "hard failures" [] (names hard_failure);
  Alcotest.(check (list string))
    "advisory failures" [ "service/observability_overhead" ]
    (names (fun c -> c.verdict = Gates.Fail && not c.row.hard));
  Alcotest.(check (list string))
    "not taken"
    [
      "multicore/speedup: not taken: host cannot run 4 domains in parallel \
       (recommended_domain_count=2)";
    ]
    (List.filter_map
       (fun (c : Gates.check) ->
         match c.verdict with
         | Gates.Not_taken _ -> Some (name c ^ ": " ^ verdict c.verdict)
         | _ -> None)
       checks);
  Alcotest.(check bool) "the run passes" true (Gates.ok checks);
  (* every row is judged on the baseline *)
  List.iter
    (fun (row : Gates.row) ->
      if not (List.exists (fun (c : Gates.check) -> c.row == row) checks) then
        Alcotest.failf "row %s expands to nothing" (String.concat "/" row.path))
    Gates.table

(* For every check the table expands to on the baseline: the last value
   inside its bound passes and the first ones past it fail, the verdict
   of every check that neither reads, holds nor lies inside the changed
   value stays as it was, and the run fails exactly when a hard check
   does. *)
let test_every_bound_edge () =
  let base = Lazy.force baseline in
  let before = judge base in
  List.iter
    (fun (c : Gates.check) ->
      match c.verdict with
      | Gates.Not_taken _ -> ()
      | _ ->
          let key, inside, past = edges c in
          let judged v expect =
            let after = judge (set key v base) in
            if List.length after <> List.length before then
              Alcotest.failf "%s: setting %s changed the checks" (name c)
                (String.concat "/" key);
            List.iter2
              (fun (b : Gates.check) (a : Gates.check) ->
                if a.row == c.row && a.key = c.key then begin
                  if a.verdict <> expect then
                    Alcotest.failf "%s (%s) at %s: %s, expected %s" (name c)
                      a.detail (Json.to_string v) (verdict a.verdict) (verdict expect)
                end
                else if
                  (not (related a.key key))
                  && verdict_class a.verdict <> verdict_class b.verdict
                then
                  Alcotest.failf "%s at %s moved the unrelated %s from %s to %s"
                    (name c) (Json.to_string v) (name a) (verdict b.verdict)
                    (verdict a.verdict))
              before after;
            let hard_failed = List.exists hard_failure after in
            if Gates.ok after = hard_failed then
              Alcotest.failf "%s at %s: run %s with%s a hard failure" (name c)
                (Json.to_string v)
                (if Gates.ok after then "passes" else "fails")
                (if hard_failed then "" else "out")
          in
          judged inside Gates.Pass;
          List.iter (fun v -> judged v Gates.Fail) past)
    before

(* the entries a [*] step expanded to on the baseline, each as the path
   that deletes it *)
let entries checks =
  List.sort_uniq compare
    (List.filter_map
       (fun (c : Gates.check) ->
         let rec upto path key =
           match (path, key) with
           | "*" :: _, k :: _ -> Some [ k ]
           | _ :: path, k :: key -> Option.map (List.cons k) (upto path key)
           | _ -> None
         in
         if c.row.kind = Gates.No_growth then None else upto c.row.path c.key)
       checks)

(* Deleting an entry from the run (a case, a load-index size, a
   scenario) fails every row over it, and the run. *)
let test_deleted_entry_fails () =
  let base = Lazy.force baseline in
  let before = judge base in
  List.iter
    (fun entry ->
      let after = judge (update entry (fun _ -> None) base) in
      List.iter
        (fun (b : Gates.check) ->
          if prefix entry b.key then
            match
              List.find_opt
                (fun (a : Gates.check) -> a.row == b.row && a.key = b.key)
                after
            with
            | Some { verdict = Gates.Fail; _ } -> ()
            | Some a ->
                Alcotest.failf "%s deleted: %s reads %s" (String.concat "/" entry)
                  (name a) (verdict a.verdict)
            | None ->
                Alcotest.failf "%s deleted: %s is not judged"
                  (String.concat "/" entry) (name b))
        before;
      if
        List.exists (fun (b : Gates.check) -> prefix entry b.key && b.row.hard) before
        && Gates.ok after
      then Alcotest.failf "%s deleted: the run passes" (String.concat "/" entry))
    (entries before);
  Alcotest.(check bool)
    "a deleted case is among them" true
    (List.mem [ "cases"; "greedy/N=256" ] (entries before))

(* A section its probe recorded as skipped reads "not taken", with the
   reason, on every row over it, and moves no other row. *)
let test_skipped_section_not_taken () =
  let base = Lazy.force baseline in
  let before = judge base in
  let sections =
    List.sort_uniq compare (List.map (fun (r : Gates.row) -> List.hd r.path) Gates.table)
  in
  List.iter
    (fun section ->
      let skipped =
        Json.Obj [ ("skipped", Json.Bool true); ("reason", Json.Str "probe off") ]
      in
      let after = judge (set [ section ] skipped base) in
      List.iter
        (fun (a : Gates.check) ->
          if List.hd a.key = section then begin
            if a.verdict <> Gates.Not_taken "probe off" then
              Alcotest.failf "%s skipped: %s reads %s" section (name a)
                (verdict a.verdict)
          end
          else
            match
              List.find_opt
                (fun (b : Gates.check) -> b.row == a.row && b.key = a.key)
                before
            with
            | Some b when b.verdict = a.verdict -> ()
            | _ -> Alcotest.failf "%s skipped: %s moved" section (name a))
        after;
      Alcotest.(check bool) (section ^ " skipped: the run passes") true (Gates.ok after))
    sections

let suite =
  [
    Alcotest.test_case "the baseline judged against itself" `Quick
      test_baseline_against_itself;
    Alcotest.test_case "every bound's edge, key by key" `Quick test_every_bound_edge;
    Alcotest.test_case "a deleted entry fails its rows" `Quick test_deleted_entry_fails;
    Alcotest.test_case "a skipped section is not taken" `Quick
      test_skipped_section_not_taken;
  ]
