module Task = Pmp_workload.Task
module Sub = Pmp_machine.Submachine
module Load_index = Pmp_index.Load_index

type t = {
  m : Pmp_machine.Machine.t;
  loads : Load_index.t;  (** [table]'s own view *)
  table : Ptable.t;
  mutable active_size : int;
  (* The cursor of the last clean [check_against]: the allocator table
     it found equal to ours, and both tables' write counts then. *)
  mutable peer : Ptable.t option;
  mutable our_mark : int;
  mutable their_mark : int;
}

let create m =
  let table = Ptable.create 64 in
  {
    m;
    loads = Ptable.loads table m;
    table;
    active_size = 0;
    peer = None;
    our_mark = 0;
    their_mark = 0;
  }

let machine t = t.m

let apply_move t (mv : Allocator.move) =
  let id = mv.task.Task.id in
  match Ptable.find_opt t.table id with
  | None -> invalid_arg "Mirror.apply_assign: move of unknown task"
  | Some (task, current) ->
      if not (Placement.equal current mv.from_) then
        invalid_arg "Mirror.apply_assign: move disagrees on old placement";
      Ptable.replace t.table task mv.to_

let apply_assign t (task : Task.t) (resp : Allocator.response) =
  if Ptable.mem t.table task.id then
    invalid_arg "Mirror.apply_assign: task already active";
  List.iter (apply_move t) resp.moves;
  Ptable.replace t.table task resp.placement;
  t.active_size <- t.active_size + task.size

let apply_remove t id =
  match Ptable.remove t.table id with
  | task, _ -> t.active_size <- t.active_size - task.Task.size
  | exception Not_found -> invalid_arg "Mirror.apply_remove: unknown task"

let placement t id = Ptable.placement t.table id

let active t = Ptable.to_list t.table
let num_active t = Ptable.length t.table
let active_size t = t.active_size

let max_load t = Load_index.max_load t.loads
let max_load_in t sub = Load_index.max_load_in t.loads sub
let imbalance t = Load_index.imbalance t.loads
let loads_at_order t ~order = Load_index.loads_at_order t.loads order

let assigned_size_in t sub =
  Ptable.fold
    (fun ((task : Task.t), (p : Placement.t)) acc ->
      let home = p.Placement.sub in
      let intersects =
        Sub.contains sub home || Sub.contains home sub
      in
      if intersects then acc + task.size else acc)
    t.table 0

let tasks_inside t sub =
  Ptable.fold
    (fun ((task : Task.t), (p : Placement.t)) acc ->
      if Sub.contains sub p.Placement.sub then task :: acc else acc)
    t.table []

let leaf_loads t = Load_index.leaf_loads t.loads

let full_check t theirs =
  let n = Ptable.length theirs in
  if n <> Ptable.length t.table then
    Error
      (Printf.sprintf "mirror has %d active tasks, allocator reports %d"
         (Ptable.length t.table) n)
  else begin
    let rec check = function
      | [] -> Ok ()
      | ((task : Task.t), their_p) :: rest -> begin
          match Ptable.find_opt t.table task.id with
          | None ->
              Error (Printf.sprintf "allocator reports unknown task %d" task.id)
          | Some (_, our_p) ->
              if Placement.equal our_p their_p then check rest
              else
                Error
                  (Printf.sprintf "task %d: mirror and allocator disagree"
                     task.id)
        end
    in
    check (Ptable.to_list theirs)
  end

(* The id is absent from both tables or at the same home in both;
   [find] + handler so the per-event check allocates nothing. *)
let agree ours theirs id =
  match Ptable.find ours id with
  | _, p -> (
      match Ptable.find theirs id with
      | _, q -> Placement.equal p q
      | exception Not_found -> false)
  | exception Not_found -> not (Ptable.mem theirs id)

(* After a clean check the two tables were equal, and since then only
   journalled ids can have changed on either side; if they all still
   agree, the tables are equal again and a full comparison would say
   [Ok] too. Anything else — a first check, another allocator, a
   journal overflow, a disagreement — takes the full comparison, so
   the verdict and its message are always exactly the full one's. *)
let check_against t (alloc : Allocator.t) =
  let theirs = alloc.Allocator.table in
  let clean =
    match t.peer with
    | Some peer when peer == theirs ->
        let agree = agree t.table theirs in
        Ptable.for_all_written t.table ~since:t.our_mark agree
        && Ptable.for_all_written theirs ~since:t.their_mark agree
    | Some _ | None -> false
  in
  let verdict = if clean then Ok () else full_check t theirs in
  (match verdict with
  | Ok () ->
      if not clean then t.peer <- Some theirs;
      t.our_mark <- Ptable.writes t.table;
      t.their_mark <- Ptable.writes theirs
  | Error _ -> t.peer <- None);
  verdict
