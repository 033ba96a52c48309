(* The load index (lib/index) against three references: hand-computed
   fixtures for the lazy-propagation edge cases, the Load_map scan
   (whose left-to-right DFS defines the leftmost tie-break the paper's
   A_G depends on), and the naive per-PE table. *)

module Machine = Pmp_machine.Machine
module Sub = Pmp_machine.Submachine
module Load_map = Pmp_machine.Load_map
module Index = Pmp_index.Load_index
module Sm = Pmp_prng.Splitmix64

let sub m ~order ~index = Sub.make m ~order ~index

(* --- unit fixtures ------------------------------------------------ *)

let test_empty () =
  let m = Machine.create 8 in
  let ix = Index.create m in
  Alcotest.(check int) "max 0" 0 (Index.max_load ix);
  Alcotest.(check int) "total 0" 0 (Index.total_load ix);
  Alcotest.(check (array int)) "all zero" (Array.make 8 0) (Index.leaf_loads ix);
  Alcotest.(check bool) "imbalance nan" true
    (Float.is_nan (Index.imbalance ix))

let test_leftmost_tie_break () =
  let m = Machine.create 8 in
  let ix = Index.create m in
  (* all zero: every order ties, index 0 must win *)
  for order = 0 to 3 do
    let _, s = Index.min_load_subtree ix ~order in
    Alcotest.(check int)
      (Printf.sprintf "all-zero tie at order %d" order)
      0 (Sub.index s)
  done;
  (* load the left half: right half ties with itself, leftmost of the
     right-half minima wins at each order *)
  Index.range_add ix (sub m ~order:2 ~index:0) 2;
  Index.range_add ix (sub m ~order:2 ~index:1) 1;
  let v, s = Index.min_load_subtree ix ~order:1 in
  Alcotest.(check int) "value" 1 v;
  Alcotest.(check int) "leftmost of tied minima" 2 (Sub.index s);
  (* and it matches the scan's DFS choice exactly *)
  let lm = Load_map.create m in
  Load_map.add lm (sub m ~order:2 ~index:0) 2;
  Load_map.add lm (sub m ~order:2 ~index:1) 1;
  let v', s' = Load_map.min_max_at_order lm 1 in
  Alcotest.(check int) "scan value" v' v;
  Alcotest.(check int) "scan index" (Sub.index s') (Sub.index s)

let test_full_range_add () =
  (* a whole-machine range add is pure lazy state at the root: every
     query must still see it, at every order *)
  let m = Machine.create 16 in
  let ix = Index.create m in
  Index.range_add ix (sub m ~order:0 ~index:3) 5;
  Index.range_add ix (sub m ~order:4 ~index:0) 7;
  Alcotest.(check int) "max = 12" 12 (Index.max_load ix);
  for order = 0 to 4 do
    let v, s = Index.min_load_subtree ix ~order in
    let expect = if order = 4 then 12 else 7 in
    Alcotest.(check int) (Printf.sprintf "min at order %d" order) expect v;
    (* leaf 3 carries the +5, so below order 2 the leftmost window
       avoiding it is index 0; at orders 2 and 3 every index-0 window
       contains it and index 1 wins *)
    let expect_idx = if order >= 2 then 1 else 0 in
    if order < 4 then
      Alcotest.(check int)
        (Printf.sprintf "argmin at order %d" order)
        expect_idx (Sub.index s)
  done;
  Index.range_add ix (sub m ~order:4 ~index:0) (-7);
  Alcotest.(check int) "lifted" 5 (Index.max_load ix);
  Alcotest.(check (array int)) "leaf view"
    (Array.init 16 (fun i -> if i = 3 then 5 else 0))
    (Index.leaf_loads ix)

let test_single_leaf_windows () =
  (* order-0 windows: min_load_subtree must find the exact leftmost
     least-loaded PE even when the loads come from coarser range adds *)
  let m = Machine.create 8 in
  let ix = Index.create m in
  Index.range_add ix (sub m ~order:3 ~index:0) 1;
  Index.range_add ix (sub m ~order:1 ~index:0) 1;
  Index.range_add ix (sub m ~order:0 ~index:5) 3;
  let v, s = Index.min_load_subtree ix ~order:0 in
  Alcotest.(check int) "min leaf load" 1 v;
  Alcotest.(check int) "leftmost min leaf" 2 (Sub.index s);
  Alcotest.(check int) "leaf 5 stacked" 4 (Index.leaf_load ix 5);
  Alcotest.(check int) "max_load_in singleton" 4
    (Index.max_load_in ix (sub m ~order:0 ~index:5))

let test_n1_machine () =
  let m = Machine.create 1 in
  let ix = Index.create m in
  Index.range_add ix (sub m ~order:0 ~index:0) 2;
  Alcotest.(check int) "max" 2 (Index.max_load ix);
  let v, s = Index.min_load_subtree ix ~order:0 in
  Alcotest.(check int) "min" 2 v;
  Alcotest.(check int) "index" 0 (Sub.index s)

let test_imbalance () =
  let m = Machine.create 4 in
  let ix = Index.create m in
  Index.range_add ix (sub m ~order:2 ~index:0) 3;
  Alcotest.(check (float 1e-9)) "uniform" 1.0 (Index.imbalance ix);
  Index.range_add ix (sub m ~order:0 ~index:0) 1;
  (* loads 4,3,3,3: max 4, mean 13/4 *)
  Alcotest.(check (float 1e-9)) "skewed" (4.0 /. (13.0 /. 4.0))
    (Index.imbalance ix)

(* --- differential properties -------------------------------------- *)

(* random aligned add/undo/clear traffic: an op either places one unit
   of load on a random aligned window, removes a previously placed
   one, or (rarely) clears everything *)
let apply_ops ~levels ~seed ~steps f =
  let g = Sm.create seed in
  let placed = ref [] and count = ref 0 in
  for _ = 1 to steps do
    let roll = Sm.int g 10 in
    if roll = 9 then begin
      placed := [];
      f `Clear
    end
    else if roll >= 6 && !placed <> [] then begin
      let arr = Array.of_list !placed in
      let i = Sm.int g (Array.length arr) in
      let s = arr.(i) in
      placed := List.filteri (fun j _ -> j <> i) !placed;
      f (`Remove s)
    end
    else begin
      let order = Sm.int g (levels + 1) in
      let index = Sm.int g (1 lsl (levels - order)) in
      incr count;
      placed := (order, index) :: !placed;
      f (`Add (order, index))
    end
  done

(* The index has no reset: take every leaf back to zero instead. *)
let drain m add leaf_loads =
  Array.iteri
    (fun leaf load -> add (sub m ~order:0 ~index:leaf) (-load))
    leaf_loads

(* max PE load over mean PE load, from a full leaf sweep; [nan] on an
   idle machine, as the index answers *)
let scan_imbalance lm =
  let leaves = Load_map.leaf_loads lm in
  let total = Array.fold_left ( + ) 0 leaves in
  if total <= 0 then Float.nan
  else
    float_of_int (Array.fold_left max 0 leaves)
    /. (float_of_int total /. float_of_int (Array.length leaves))

let prop_index_matches_scan (levels, seed, steps) =
  let n = 1 lsl levels in
  let m = Machine.create n in
  let ix = Index.create m in
  let lm = Load_map.create m in
  let g = Sm.create (seed lxor 0x5bf03635) in
  let ok = ref true in
  apply_ops ~levels ~seed ~steps (fun op ->
      begin
        match op with
        | `Add (order, index) ->
            Index.range_add ix (sub m ~order ~index) 1;
            Load_map.add lm (sub m ~order ~index) 1
        | `Remove (order, index) ->
            Index.range_add ix (sub m ~order ~index) (-1);
            Load_map.add lm (sub m ~order ~index) (-1)
        | `Clear ->
            drain m (Index.range_add ix) (Index.leaf_loads ix);
            Load_map.clear lm
      end;
      if Index.max_load ix <> Load_map.max_overall lm then ok := false;
      (* one random-order min-of-max per op: value AND leftmost window *)
      let order = Sm.int g (levels + 1) in
      let v, s = Index.min_load_subtree ix ~order in
      let v', s' = Load_map.min_max_at_order lm order in
      if v <> v' || Sub.index s <> Sub.index s' then ok := false;
      (* and the snapshot queries: one random order's window maxima, one
         random PE, and the max/mean ratio from the scan's own leaves *)
      let order = Sm.int g (levels + 1) in
      if Index.loads_at_order ix order <> Load_map.loads_at_order lm order then
        ok := false;
      let leaf = Sm.int g n in
      if Index.leaf_load ix leaf <> Load_map.leaf_load lm leaf then ok := false;
      if not (Float.equal (Index.imbalance ix) (scan_imbalance lm)) then
        ok := false);
  !ok
  && Index.leaf_loads ix = Load_map.leaf_loads lm
  && Index.total_load ix = Array.fold_left ( + ) 0 (Load_map.leaf_loads lm)

(* The index's add walk recombines only the aggregate slots a change
   can reach, so check every slot it answers from after every op:
   min_load_subtree (value and leftmost window) and a random window's
   max at every order, plus the max and total. The traffic mixes unit
   adds with set-to-value jumps, up to 2^30, on windows of every
   order, the root included. *)
let prop_every_order_matches_scan (levels, seed, steps) =
  let n = 1 lsl levels in
  let m = Machine.create n in
  let ix = Index.create m in
  let lm = Load_map.create m in
  let g = Sm.create seed in
  (* value currently installed on each window: every delta moves a
     window to a new value, so no load can go negative *)
  let installed = Hashtbl.create 16 in
  let ok = ref true in
  let value () =
    match Sm.int g 4 with
    | 0 -> 0
    | 1 -> 1 lsl 30
    | 2 -> 1 + Sm.int g 3
    | _ -> Sm.int g 1_000_000
  in
  for _ = 1 to steps do
    if Sm.int g 20 = 0 then begin
      Hashtbl.reset installed;
      drain m (Index.range_add ix) (Index.leaf_loads ix);
      Load_map.clear lm
    end
    else begin
      let order = Sm.int g (levels + 1) in
      let s = sub m ~order ~index:(Sm.int g (1 lsl (levels - order))) in
      let cur = Option.value ~default:0 (Hashtbl.find_opt installed s) in
      let next = if Sm.bool g then cur + 1 else value () in
      Hashtbl.replace installed s next;
      Index.range_add ix s (next - cur);
      Load_map.add lm s (next - cur)
    end;
    if Index.max_load ix <> Load_map.max_overall lm then ok := false;
    if Index.total_load ix <> Array.fold_left ( + ) 0 (Load_map.leaf_loads lm)
    then ok := false;
    for order = 0 to levels do
      let v, s = Index.min_load_subtree ix ~order in
      let v', s' = Load_map.min_max_at_order lm order in
      if v <> v' || Sub.index s <> Sub.index s' then ok := false;
      let w = sub m ~order ~index:(Sm.int g (1 lsl (levels - order))) in
      if Index.max_load_in ix w <> Load_map.max_load lm w then ok := false
    done
  done;
  !ok

let prop_greedy_matches_scan (levels, seed, steps) =
  (* the allocator-level statement: greedy places every task exactly
     where the leftmost min-of-max scan over a Load_map does *)
  let n = 1 lsl levels in
  let m = Machine.create n in
  let greedy = Pmp_core.Greedy.create m in
  let lm = Load_map.create m in
  let homes = Hashtbl.create 16 in
  let seq = Helpers.random_sequence ~seed ~machine_size:n ~steps in
  List.for_all
    (fun (ev : Pmp_workload.Event.t) ->
      match ev with
      | Arrive task ->
          let _, want =
            Load_map.min_max_at_order lm (Pmp_workload.Task.order task)
          in
          Load_map.add lm want 1;
          Hashtbl.replace homes task.id want;
          let r = greedy.Pmp_core.Allocator.assign task in
          Pmp_core.Placement.equal r.Pmp_core.Allocator.placement
            (Pmp_core.Placement.direct want)
      | Depart id ->
          Load_map.add lm (Hashtbl.find homes id) (-1);
          Hashtbl.remove homes id;
          greedy.Pmp_core.Allocator.remove id;
          true)
    (Pmp_workload.Sequence.to_list seq)

(* big-machine spot check: N = 2^16, fewer qcheck cases *)
let prop_large_machine seed =
  prop_index_matches_scan (16, seed, 60)

let qsuite =
  let params = Helpers.seq_params ~max_levels:8 ~max_steps:120 () in
  [
    QCheck.Test.make ~count:80 ~name:"index = scan (value and argmin)" params
      prop_index_matches_scan;
    QCheck.Test.make ~count:80 ~name:"index = scan at every order, any delta"
      params prop_every_order_matches_scan;
    QCheck.Test.make ~count:60 ~name:"greedy: indexed = scan placements" params
      prop_greedy_matches_scan;
    QCheck.Test.make ~count:6 ~name:"index = scan at N=65536"
      QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
      prop_large_machine;
  ]

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "leftmost tie-break" `Quick test_leftmost_tie_break;
    Alcotest.test_case "full-range lazy add" `Quick test_full_range_add;
    Alcotest.test_case "single-leaf windows" `Quick test_single_leaf_windows;
    Alcotest.test_case "N=1 machine" `Quick test_n1_machine;
    Alcotest.test_case "imbalance" `Quick test_imbalance;
  ]
  @ Helpers.qtests qsuite
