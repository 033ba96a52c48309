(* Heap-indexed lazy segment tree over the leaf array, augmented with a
   per-depth aggregate so the allocators' two standing questions —
   "which aligned size-2^k window has the smallest maximum PE load?"
   and "what is the current maximum load?" — are answered without
   rescanning the leaves.

   Node 1 is the root; node [v] has children [2v], [2v+1]; the
   submachine [(order, index)] is node [2^(levels-order) + index].
   Every mapped task of size [2^j] is a lazy range increment on its
   aligned leaf interval, i.e. a [pending] bump at one node.

   Each node [v] at depth [d] owns a slice of [mm] with one slot per
   target depth [D in d..levels]:

   - slot 0 (D = d) is the subtree's maximum leaf load, counting
     pending adds at [v] and below but not at ancestors;
   - slot [D - d] (D > d) is the minimum over [v]'s depth-[D]
     descendants [w] of (max leaf load under [w], counting pendings on
     the path [w..v]).

   The root's slice therefore holds, in absolute terms, the global max
   load (slot 0) and the min-of-max over every aligned window size
   (slot [D] for windows of order [levels - D]).  Slice lengths shrink
   geometrically with the node count, so [mm] is O(N) words in total.

   Combine rule for an internal node [v] with children [l], [r]:

     mm[v][0]  = pending(v) + max mm[l][0] mm[r][0]
     mm[v][e]  = pending(v) + min mm[l][e-1] mm[r][e-1]   (e >= 1)

   Slot 0 reads the children's slot 0 and slot [e >= 1] their slot
   [e - 1], so when a child's slots [lo..hi] change, only the parent's
   slots [(if lo = 0 then 0 else lo + 1) .. hi + 1] can. A range add shifts
   one slice, then walks up recombining just those slots and stops at
   the first ancestor where none moved: O(log N) plus the slots that
   change, O(log^2 N) at worst, with no allocation. Every query below
   is O(log N) or better. *)

module Machine = Pmp_machine.Machine
module Sub = Pmp_machine.Submachine

type t = {
  m : Machine.t;
  levels : int;
  pending : int array; (* lazy add at node, applies to its whole subtree *)
  mm : int array; (* flattened per-node slices, see above *)
  off : int array; (* start of node v's slice in [mm] *)
  mutable total : int; (* sum of all leaf loads *)
}

(* floor log2: heap node [v] sits at depth [floor (log2 v)] *)
let depth_of v =
  let rec go v d = if v <= 1 then d else go (v lsr 1) (d + 1) in
  go v 0

let create m =
  let n = Machine.size m in
  let levels = Machine.levels m in
  let off = Array.make (2 * n) 0 in
  let total = ref 0 in
  for v = 1 to (2 * n) - 1 do
    off.(v) <- !total;
    total := !total + (levels - depth_of v + 1)
  done;
  {
    m;
    levels;
    pending = Array.make (2 * n) 0;
    mm = Array.make !total 0;
    off;
    total = 0;
  }

let machine t = t.m

let node_of t (sub : Sub.t) = (1 lsl (t.levels - sub.order)) + sub.index

(* [a]'s child just changed its slots [lo..hi]: recombine the slots of
   [a] they feed, then continue from [a] with the range that moved *)
let rec propagate t a lo hi =
  if a >= 1 then begin
    let ov = t.off.(a) and ol = t.off.(2 * a) and or_ = t.off.((2 * a) + 1) in
    let p = t.pending.(a) in
    let first = ref (-1) and last = ref (-1) in
    for e = (if lo = 0 then 0 else lo + 1) to hi + 1 do
      let x =
        if e = 0 then p + max t.mm.(ol) t.mm.(or_)
        else p + min t.mm.(ol + e - 1) t.mm.(or_ + e - 1)
      in
      if x <> t.mm.(ov + e) then begin
        t.mm.(ov + e) <- x;
        if !last < 0 then first := e;
        last := e
      end
    done;
    if !last >= 0 then propagate t (a / 2) !first !last
  end

let range_add t (sub : Sub.t) delta =
  if delta <> 0 then begin
    let v = node_of t sub in
    t.pending.(v) <- t.pending.(v) + delta;
    (* pending shifts every slot of v's own slice, 0..order, uniformly *)
    let ov = t.off.(v) in
    for e = ov to ov + sub.order do
      t.mm.(e) <- t.mm.(e) + delta
    done;
    t.total <- t.total + (delta * Sub.size sub);
    propagate t (v / 2) 0 sub.order
  end

let max_load t = t.mm.(t.off.(1))
let total_load t = t.total

let mean_load t =
  float_of_int t.total /. float_of_int (Machine.size t.m)

let imbalance t =
  if t.total <= 0 then Float.nan else float_of_int (max_load t) /. mean_load t

let max_load_in t (sub : Sub.t) =
  let v = node_of t sub in
  let rec above a acc = if a < 1 then acc else above (a / 2) (acc + t.pending.(a)) in
  t.mm.(t.off.(v)) + above (v / 2) 0

let min_load_subtree t ~order =
  if order < 0 || order > t.levels then
    invalid_arg "Load_index.min_load_subtree";
  let target = t.levels - order in
  let value = t.mm.(t.off.(1) + target) in
  (* descend towards the leftmost depth-[target] node achieving the
     min: on ties the left child also contains a minimising window, so
     [<=] preserves the paper's leftmost rule *)
  let rec down v d =
    if d = target then v
    else begin
      let e = target - (d + 1) in
      if t.mm.(t.off.(2 * v) + e) <= t.mm.(t.off.((2 * v) + 1) + e) then
        down (2 * v) (d + 1)
      else down ((2 * v) + 1) (d + 1)
    end
  in
  let v = down 1 0 in
  (value, { Sub.order; index = v - (1 lsl target) })

let min_leaf t =
  let value, sub = min_load_subtree t ~order:0 in
  (value, sub.Sub.index)

let leaf_load t leaf =
  max_load_in t { Sub.order = 0; index = leaf }

let loads_at_order t order =
  if order < 0 || order > t.levels then invalid_arg "Load_index.loads_at_order";
  let target = t.levels - order in
  let out = Array.make (1 lsl target) 0 in
  let rec visit v d acc =
    if d = target then out.(v - (1 lsl target)) <- t.mm.(t.off.(v)) + acc
    else begin
      let acc = acc + t.pending.(v) in
      visit (2 * v) (d + 1) acc;
      visit ((2 * v) + 1) (d + 1) acc
    end
  in
  visit 1 0 0;
  out

let leaf_loads t = loads_at_order t 0

let clear t =
  Array.fill t.pending 0 (Array.length t.pending) 0;
  Array.fill t.mm 0 (Array.length t.mm) 0;
  t.total <- 0
