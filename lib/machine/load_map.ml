(* Heap-indexed lazy segment tree congruent to the machine tree: node 1
   is the root; node [v] has children [2v], [2v+1]; submachine (x, j)
   is node [2^(levels-x) + j]. Invariant: [best.(v)] is the maximum PE
   load in v's subtree counting lazy adds at v and below, but not at
   ancestors; [pending.(v)] is v's own lazy add. For leaves,
   [best.(v) = pending.(v)]. *)

type t = {
  m : Machine.t;
  best : int array;
  least : int array; (* same convention as [best] but minimum PE load *)
  pending : int array;
}

let create m =
  let n = Machine.size m in
  {
    m;
    best = Array.make (2 * n) 0;
    least = Array.make (2 * n) 0;
    pending = Array.make (2 * n) 0;
  }

let node_of t (sub : Submachine.t) =
  (1 lsl (Machine.levels t.m - sub.order)) + sub.index

let add t sub delta =
  let v = node_of t sub in
  t.pending.(v) <- t.pending.(v) + delta;
  t.best.(v) <- t.best.(v) + delta;
  t.least.(v) <- t.least.(v) + delta;
  let rec up v =
    if v >= 1 then begin
      t.best.(v) <- max t.best.(2 * v) t.best.((2 * v) + 1) + t.pending.(v);
      t.least.(v) <- min t.least.(2 * v) t.least.((2 * v) + 1) + t.pending.(v);
      up (v / 2)
    end
  in
  up (v / 2)

let max_load t sub =
  let v = node_of t sub in
  let rec ancestors v acc = if v < 1 then acc else ancestors (v / 2) (acc + t.pending.(v)) in
  t.best.(v) + ancestors (v / 2) 0

let max_overall t = t.best.(1)

(* Leftmost least-loaded PE in O(log N) by descending the min tree
   (greedy's hot path: unit tasks dominate most workloads). *)
let min_leaf t =
  let n = Machine.levels t.m in
  let rec down v depth acc =
    if depth = n then (t.least.(v) + acc, v - (1 lsl n))
    else begin
      let acc = acc + t.pending.(v) in
      (* prefer left on ties for the paper's leftmost rule *)
      if t.least.(2 * v) <= t.least.((2 * v) + 1) then down (2 * v) (depth + 1) acc
      else down ((2 * v) + 1) (depth + 1) acc
    end
  in
  down 1 0 0

let min_max_at_order t order =
  let n = Machine.levels t.m in
  if order < 0 || order > n then invalid_arg "Load_map.min_max_at_order";
  if order = 0 then begin
    let value, leaf = min_leaf t in
    (value, { Submachine.order = 0; index = leaf })
  end
  else begin
  let target_depth = n - order in
  let best_val = ref max_int and best_idx = ref 0 in
  (* DFS left-to-right so the first minimum found is the leftmost. *)
  let rec visit v depth acc =
    if depth = target_depth then begin
      let value = t.best.(v) + acc in
      if value < !best_val then begin
        best_val := value;
        best_idx := v - (1 lsl target_depth)
      end
    end
    else begin
      let acc = acc + t.pending.(v) in
      visit (2 * v) (depth + 1) acc;
      visit ((2 * v) + 1) (depth + 1) acc
    end
  in
  visit 1 0 0;
  (!best_val, { Submachine.order; index = !best_idx })
  end

let loads_at_order t order =
  let n = Machine.levels t.m in
  if order < 0 || order > n then invalid_arg "Load_map.loads_at_order";
  let target_depth = n - order in
  let out = Array.make (1 lsl target_depth) 0 in
  let rec visit v depth acc =
    if depth = target_depth then out.(v - (1 lsl target_depth)) <- t.best.(v) + acc
    else begin
      let acc = acc + t.pending.(v) in
      visit (2 * v) (depth + 1) acc;
      visit ((2 * v) + 1) (depth + 1) acc
    end
  in
  visit 1 0 0;
  out

let leaf_load t leaf =
  max_load t { Submachine.order = 0; index = leaf }

let leaf_loads t =
  let n = Machine.size t.m in
  let out = Array.make n 0 in
  let rec visit v depth acc =
    if depth = Machine.levels t.m then out.(v - n) <- t.best.(v) + acc
    else begin
      let acc = acc + t.pending.(v) in
      visit (2 * v) (depth + 1) acc;
      visit ((2 * v) + 1) (depth + 1) acc
    end
  in
  visit 1 0 0;
  out

let clear t =
  Array.fill t.best 0 (Array.length t.best) 0;
  Array.fill t.least 0 (Array.length t.least) 0;
  Array.fill t.pending 0 (Array.length t.pending) 0
