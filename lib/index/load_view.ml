module Machine = Pmp_machine.Machine
module Sub = Pmp_machine.Submachine
module Load_map = Pmp_machine.Load_map

type backend = Indexed | Scan | Checked

exception Divergence of string

let backend_to_string = function
  | Indexed -> "indexed"
  | Scan -> "scan"
  | Checked -> "checked"

let backend_of_string = function
  | "indexed" -> Some Indexed
  | "scan" -> Some Scan
  | "checked" -> Some Checked
  | _ -> None

type t =
  | I of Load_index.t
  | S of Load_map.t
  | C of Load_index.t * Load_map.t

let create ?(backend = Indexed) m =
  match backend with
  | Indexed -> I (Load_index.create m)
  | Scan -> S (Load_map.create m)
  | Checked -> C (Load_index.create m, Load_map.create m)

let backend = function I _ -> Indexed | S _ -> Scan | C _ -> Checked

let machine = function
  | I idx -> Load_index.machine idx
  | S lm | C (_, lm) -> Load_map.machine lm

let diverged what pp_got got pp_want want =
  raise
    (Divergence
       (Printf.sprintf "load index diverged from scan on %s: index=%s scan=%s"
          what (pp_got got) (pp_want want)))

let check_int what got want =
  if got <> want then diverged what string_of_int got string_of_int want

let pp_choice (load, (sub : Sub.t)) =
  Printf.sprintf "%d@(order=%d,index=%d)" load sub.order sub.index

let add t sub delta =
  match t with
  | I idx -> Load_index.range_add idx sub delta
  | S lm -> Load_map.add lm sub delta
  | C (idx, lm) ->
      Load_index.range_add idx sub delta;
      Load_map.add lm sub delta

let max_overall = function
  | I idx -> Load_index.max_load idx
  | S lm -> Load_map.max_overall lm
  | C (idx, lm) ->
      let got = Load_index.max_load idx and want = Load_map.max_overall lm in
      check_int "max_overall" got want;
      got

let max_load t sub =
  match t with
  | I idx -> Load_index.max_load_in idx sub
  | S lm -> Load_map.max_load lm sub
  | C (idx, lm) ->
      let got = Load_index.max_load_in idx sub
      and want = Load_map.max_load lm sub in
      check_int
        (Printf.sprintf "max_load(order=%d,index=%d)" sub.Sub.order
           sub.Sub.index)
        got want;
      got

let min_max_at_order t order =
  match t with
  | I idx -> Load_index.min_load_subtree idx ~order
  | S lm -> Load_map.min_max_at_order lm order
  | C (idx, lm) ->
      let got = Load_index.min_load_subtree idx ~order
      and want = Load_map.min_max_at_order lm order in
      if fst got <> fst want || not (Sub.equal (snd got) (snd want)) then
        diverged
          (Printf.sprintf "min_max_at_order %d" order)
          pp_choice got pp_choice want;
      got

let loads_at_order t order =
  match t with
  | I idx -> Load_index.loads_at_order idx order
  | S lm -> Load_map.loads_at_order lm order
  | C (idx, lm) ->
      let got = Load_index.loads_at_order idx order
      and want = Load_map.loads_at_order lm order in
      if got <> want then
        diverged
          (Printf.sprintf "loads_at_order %d" order)
          (fun a ->
            String.concat "," (List.map string_of_int (Array.to_list a)))
          got
          (fun a ->
            String.concat "," (List.map string_of_int (Array.to_list a)))
          want;
      got

let leaf_load t leaf =
  match t with
  | I idx -> Load_index.leaf_load idx leaf
  | S lm -> Load_map.leaf_load lm leaf
  | C (idx, lm) ->
      let got = Load_index.leaf_load idx leaf
      and want = Load_map.leaf_load lm leaf in
      check_int (Printf.sprintf "leaf_load %d" leaf) got want;
      got

let leaf_loads t =
  match t with
  | I idx -> Load_index.leaf_loads idx
  | S lm -> Load_map.leaf_loads lm
  | C (idx, lm) ->
      let got = Load_index.leaf_loads idx and want = Load_map.leaf_loads lm in
      if got <> want then
        diverged "leaf_loads"
          (fun a -> Printf.sprintf "[%d leaves]" (Array.length a))
          got
          (fun _ -> "(differs)")
          want;
      got

(* the naive answer for the scan backends: a full leaf sweep *)
let imbalance_of_leaves leaves =
  let total = Array.fold_left ( + ) 0 leaves in
  if total <= 0 then Float.nan
  else begin
    let mx = Array.fold_left max 0 leaves in
    float_of_int mx
    /. (float_of_int total /. float_of_int (Array.length leaves))
  end

let imbalance t =
  match t with
  | I idx -> Load_index.imbalance idx
  | S lm -> imbalance_of_leaves (Load_map.leaf_loads lm)
  | C (idx, lm) ->
      let got = Load_index.imbalance idx
      and want = imbalance_of_leaves (Load_map.leaf_loads lm) in
      let agree =
        (Float.is_nan got && Float.is_nan want)
        || Float.abs (got -. want) <= 1e-9 *. Float.max 1.0 (Float.abs want)
      in
      if not agree then
        diverged "imbalance" string_of_float got string_of_float want;
      got

let total_load t =
  match t with
  | I idx -> Load_index.total_load idx
  | S lm -> Array.fold_left ( + ) 0 (Load_map.leaf_loads lm)
  | C (idx, lm) ->
      let got = Load_index.total_load idx
      and want = Array.fold_left ( + ) 0 (Load_map.leaf_loads lm) in
      check_int "total_load" got want;
      got
