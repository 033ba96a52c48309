type fit = Leftmost | Best_fit

type t = {
  m : Pmp_machine.Machine.t;
  fit : fit;
  mutable copies : Buddy.t array; (* index = creation order *)
}

let create ?(fit = Leftmost) m = { m; fit; copies = [| Buddy.create m |] }
let machine t = t.m

let buddy_alloc t buddy ~order =
  match t.fit with
  | Leftmost -> Buddy.alloc buddy ~order
  | Best_fit -> Buddy.alloc_best_fit buddy ~order

let alloc t ~order =
  let n = Array.length t.copies in
  let rec try_copy i =
    if i = n then begin
      let fresh = Buddy.create t.m in
      t.copies <- Array.append t.copies [| fresh |];
      match buddy_alloc t fresh ~order with
      | Some sub -> Placement.make ~copy:i sub
      | None -> assert false (* a fresh copy always fits any legal order *)
    end
    else begin
      match buddy_alloc t t.copies.(i) ~order with
      | Some sub -> Placement.make ~copy:i sub
      | None -> try_copy (i + 1)
    end
  in
  try_copy 0

let occupy t (p : Placement.t) =
  let n = Array.length t.copies in
  if p.copy >= n then
    t.copies <-
      Array.append t.copies (Array.init (p.copy + 1 - n) (fun _ -> Buddy.create t.m));
  Buddy.claim t.copies.(p.copy) p.sub

let restore t table (st : Allocator.state) =
  List.iter
    (fun ((task : Pmp_workload.Task.t), (p : Placement.t)) ->
      if not (occupy t p) then begin
        let clash ((_ : Pmp_workload.Task.t), (q : Placement.t)) =
          q.copy = p.copy
          && Pmp_machine.Submachine.(contains q.sub p.sub || contains p.sub q.sub)
        in
        let other =
          match List.find_opt clash (Ptable.to_list table) with
          | Some (o, _) -> o.Pmp_workload.Task.id
          | None -> -1
        in
        invalid_arg
          (Printf.sprintf "tasks %d and %d overlap on copy %d" other task.id
             p.copy)
      end;
      Ptable.replace table task p)
    st.tasks

let trim t =
  (* drop fully vacant copies from the top of the stack, keeping one *)
  let n = ref (Array.length t.copies) in
  while !n > 1 && Buddy.is_vacant t.copies.(!n - 1) do
    decr n
  done;
  if !n < Array.length t.copies then t.copies <- Array.sub t.copies 0 !n

let free t (p : Placement.t) =
  if p.copy >= Array.length t.copies then
    invalid_arg "Copystack.free: unknown copy";
  Buddy.free t.copies.(p.copy) p.sub;
  trim t

let can_alloc t ~order =
  Array.exists (fun c -> Buddy.can_alloc c ~order) t.copies

let num_copies t = Array.length t.copies

let occupied_copies t =
  Array.fold_left
    (fun acc c -> if Buddy.is_vacant c then acc else acc + 1)
    0 t.copies

let reset t = t.copies <- [| Buddy.create t.m |]

let copy_free_blocks t i =
  if i < 0 || i >= Array.length t.copies then
    invalid_arg "Copystack.copy_free_blocks: no such copy";
  Buddy.free_blocks t.copies.(i)

let check_invariants t =
  let rec go i =
    if i = Array.length t.copies then Ok ()
    else begin
      match Buddy.check_invariants t.copies.(i) with
      | Ok () -> go (i + 1)
      | Error e -> Error (Printf.sprintf "copy %d: %s" i e)
    end
  in
  go 0
