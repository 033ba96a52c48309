module Sub = Pmp_machine.Submachine
module IntMap = Map.Make (Int)

(* Free blocks keyed by first leaf, value = order. Invariants:
   - blocks are disjoint and aligned to their size;
   - fully coalesced: a block's buddy of the same order is never free. *)
type t = {
  m : Pmp_machine.Machine.t;
  mutable blocks : int IntMap.t;
  mutable free_pes : int;
}

let create m =
  {
    m;
    blocks = IntMap.singleton 0 (Pmp_machine.Machine.levels m);
    free_pes = Pmp_machine.Machine.size m;
  }

let machine t = t.m

let carve t ~order (start, block_order) =
  t.blocks <- IntMap.remove start t.blocks;
  (* keep the remainder as aligned blocks of orders order..block_order-1 *)
  for o = order to block_order - 1 do
    t.blocks <- IntMap.add (start + (1 lsl o)) o t.blocks
  done;
  t.free_pes <- t.free_pes - (1 lsl order);
  Sub.of_leaf_span t.m ~first_leaf:start ~size:(1 lsl order)

let alloc t ~order =
  if order < 0 || order > Pmp_machine.Machine.levels t.m then
    invalid_arg "Buddy.alloc: bad order";
  (* leftmost maximal free block large enough; its start is aligned
     to 2^order because maximal blocks align to their own size *)
  IntMap.to_seq t.blocks
  |> Seq.find (fun (_, block_order) -> block_order >= order)
  |> Option.map (carve t ~order)

let claim t sub =
  let start = Sub.first_leaf sub and order = Sub.order sub in
  match IntMap.find_last_opt (fun s -> s <= start) t.blocks with
  | Some (s, o) when o >= order && start < s + (1 lsl o) ->
      t.blocks <- IntMap.remove s t.blocks;
      (* halve down to [order], freeing each half that misses [sub] *)
      let rec split s o =
        if o > order then begin
          let half = 1 lsl (o - 1) in
          if start < s + half then begin
            t.blocks <- IntMap.add (s + half) (o - 1) t.blocks;
            split s (o - 1)
          end
          else begin
            t.blocks <- IntMap.add s (o - 1) t.blocks;
            split (s + half) (o - 1)
          end
        end
      in
      split s o;
      t.free_pes <- t.free_pes - (1 lsl order);
      true
  | Some _ | None -> false

let alloc_best_fit t ~order =
  if order < 0 || order > Pmp_machine.Machine.levels t.m then
    invalid_arg "Buddy.alloc_best_fit: bad order";
  let best =
    IntMap.fold
      (fun start block_order acc ->
        if block_order < order then acc
        else begin
          match acc with
          | Some (_, best_order) when best_order <= block_order -> acc
          | _ -> Some (start, block_order)
        end)
      t.blocks None
  in
  Option.map (carve t ~order) best

let free t sub =
  let start = Sub.first_leaf sub and order = Sub.order sub in
  (* reject double frees: no free block may overlap [start, start+2^order) *)
  IntMap.iter
    (fun s o ->
      let s_end = s + (1 lsl o) and e = start + (1 lsl order) in
      if s < e && start < s_end then
        invalid_arg "Buddy.free: region already (partly) vacant")
    t.blocks;
  t.free_pes <- t.free_pes + (1 lsl order);
  (* insert then coalesce with the buddy while possible *)
  let rec coalesce start order =
    if order >= Pmp_machine.Machine.levels t.m then
      t.blocks <- IntMap.add start order t.blocks
    else begin
      let buddy = start lxor (1 lsl order) in
      match IntMap.find_opt buddy t.blocks with
      | Some buddy_order when buddy_order = order ->
          t.blocks <- IntMap.remove buddy t.blocks;
          coalesce (min start buddy) (order + 1)
      | Some _ | None -> t.blocks <- IntMap.add start order t.blocks
    end
  in
  coalesce start order

let can_alloc t ~order =
  IntMap.exists (fun _ block_order -> block_order >= order) t.blocks

let max_free_order t =
  IntMap.fold (fun _ order acc -> max order acc) t.blocks (-1)

let free_size t = t.free_pes

let is_vacant t = t.free_pes = Pmp_machine.Machine.size t.m

let free_blocks t =
  IntMap.bindings t.blocks
  |> List.map (fun (start, order) ->
         Sub.of_leaf_span t.m ~first_leaf:start ~size:(1 lsl order))

let check_invariants t =
  let bindings = IntMap.bindings t.blocks in
  let rec check = function
    | [] | [ _ ] -> Ok ()
    | (s1, o1) :: ((s2, o2) :: _ as rest) ->
        if s1 + (1 lsl o1) > s2 then Error "overlapping free blocks"
        else if o1 = o2 && s1 lxor (1 lsl o1) = s2 then
          Error "uncoalesced buddy pair"
        else check rest
  in
  let aligned =
    List.for_all (fun (s, o) -> Pmp_util.Pow2.is_aligned s (1 lsl o)) bindings
  in
  let total = List.fold_left (fun acc (_, o) -> acc + (1 lsl o)) 0 bindings in
  if not aligned then Error "misaligned free block"
  else if total <> t.free_pes then Error "free_pes out of sync"
  else check bindings
