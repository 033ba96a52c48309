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
   The slices of one depth lie side by side, each [levels - d + 1]
   long, after those of every shallower depth: node [2^d + r], the
   depth-[d] node of rank [r], starts at [base.(d) + r * (levels - d +
   1)]. The walks below carry (depth, rank) rather than the node, so a
   per-depth base replaces a per-node offset table and its set-up.

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
  base : int array; (* start in [mm] of the depth-[d] slices *)
  mutable total : int; (* sum of all leaf loads *)
}

let create m =
  let n = Machine.size m in
  let levels = Machine.levels m in
  let base = Array.make (levels + 2) 0 in
  for d = 0 to levels do
    base.(d + 1) <- base.(d) + ((1 lsl d) * (levels - d + 1))
  done;
  {
    m;
    levels;
    pending = Array.make (2 * n) 0;
    mm = Array.make base.(levels + 1) 0;
    base;
    total = 0;
  }

let node_of t (sub : Sub.t) = (1 lsl (t.levels - sub.order)) + sub.index

(* start of the slice of the depth-[d] node of rank [r] *)
let[@inline] off t d r = t.base.(d) + (r * (t.levels - d + 1))

(* The depth-[d] node of rank [r] just saw a child change its slots
   [lo..hi]: recombine the slots they feed, then continue from this
   node with the range that moved. Its children are the depth-[d + 1]
   nodes of ranks [2r] and [2r + 1], whose slices are adjacent. *)
let rec propagate t d r lo hi =
  if d >= 0 then begin
    let s = t.levels - d (* a child's slice length *) in
    let ov = off t d r and ol = t.base.(d + 1) + (2 * r * s) in
    let or_ = ol + s in
    let p = t.pending.((1 lsl d) + r) in
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
    if !last >= 0 then propagate t (d - 1) (r lsr 1) !first !last
  end

let range_add t (sub : Sub.t) delta =
  if delta <> 0 then begin
    let v = node_of t sub and d = t.levels - sub.order in
    t.pending.(v) <- t.pending.(v) + delta;
    (* pending shifts every slot of v's own slice, 0..order, uniformly *)
    let ov = off t d sub.index in
    for e = ov to ov + sub.order do
      t.mm.(e) <- t.mm.(e) + delta
    done;
    t.total <- t.total + (delta * Sub.size sub);
    propagate t (d - 1) (sub.index lsr 1) 0 sub.order
  end

(* the root's slice starts at 0 *)
let max_load t = t.mm.(0)
let total_load t = t.total

let mean_load t =
  float_of_int t.total /. float_of_int (Machine.size t.m)

let imbalance t =
  if t.total <= 0 then Float.nan else float_of_int (max_load t) /. mean_load t

let max_load_in t (sub : Sub.t) =
  let v = node_of t sub in
  let rec above a acc = if a < 1 then acc else above (a / 2) (acc + t.pending.(a)) in
  t.mm.(off t (t.levels - sub.order) sub.index) + above (v / 2) 0

(* Descend from the depth-[d] node of rank [r] towards the leftmost
   depth-[target] node achieving the min: on ties the left child also
   contains a minimising window, so [<=] preserves the paper's leftmost
   rule. *)
let rec down t target d r =
  if d = target then r
  else begin
    let s = t.levels - d in
    let l = t.base.(d + 1) + (2 * r * s) + (target - (d + 1)) in
    if t.mm.(l) <= t.mm.(l + s) then down t target (d + 1) (2 * r)
    else down t target (d + 1) ((2 * r) + 1)
  end

let min_load_subtree t ~order =
  if order < 0 || order > t.levels then
    invalid_arg "Load_index.min_load_subtree";
  let target = t.levels - order in
  (t.mm.(target), { Sub.order; index = down t target 0 0 })

let leaf_load t leaf =
  max_load_in t { Sub.order = 0; index = leaf }

let loads_at_order t order =
  if order < 0 || order > t.levels then invalid_arg "Load_index.loads_at_order";
  let target = t.levels - order in
  let out = Array.make (1 lsl target) 0 in
  let rec visit d r acc =
    if d = target then out.(r) <- t.mm.(off t d r) + acc
    else begin
      let acc = acc + t.pending.((1 lsl d) + r) in
      visit (d + 1) (2 * r) acc;
      visit (d + 1) ((2 * r) + 1) acc
    end
  in
  visit 0 0 0;
  out

let leaf_loads t = loads_at_order t 0
