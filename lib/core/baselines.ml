module Task = Pmp_workload.Task
module Sub = Pmp_machine.Submachine
module Load_index = Pmp_index.Load_index

(* Shared skeleton: the table's load view plus a policy choosing the
   submachine index for an arrival, given the per-submachine loads at
   its order. *)
let make m ~name ~choose : Allocator.t =
  let table = Ptable.create 64 in
  let loads = Ptable.loads table m in
  let assign (task : Task.t) =
    if task.size > Pmp_machine.Machine.size m then
      invalid_arg (name ^ ".assign: task larger than machine");
    let order = Task.order task in
    let index = choose ~order (Load_index.loads_at_order loads order) in
    let sub = Sub.make m ~order ~index in
    let placement = Placement.direct sub in
    Ptable.replace table task placement;
    { Allocator.placement; moves = [] }
  in
  let remove id =
    match Ptable.remove table id with
    | _ -> ()
    | exception Not_found -> invalid_arg (name ^ ".remove: unknown task")
  in
  {
    Allocator.name = name;
    machine = m;
    assign;
    remove;
    table;
    realloc_events = (fun () -> 0);
    export = Allocator.no_export name;
  }

let min_load arr = Array.fold_left min arr.(0) arr
let max_load arr = Array.fold_left max arr.(0) arr

let rightmost_greedy m =
  let choose ~order:_ arr =
    let target = min_load arr in
    let rec find i = if arr.(i) = target then i else find (i - 1) in
    find (Array.length arr - 1)
  in
  make m ~name:"greedy-rightmost" ~choose

let random_tie_greedy m ~rng =
  let choose ~order:_ arr =
    let target = min_load arr in
    let candidates = ref [] in
    Array.iteri (fun i v -> if v = target then candidates := i :: !candidates) arr;
    let cands = Array.of_list !candidates in
    cands.(Pmp_prng.Splitmix64.int rng (Array.length cands))
  in
  make m ~name:"greedy-random-tie" ~choose

let leftmost_always m =
  make m ~name:"leftmost-always" ~choose:(fun ~order:_ _ -> 0)

let round_robin m =
  let cursors = Array.make (Pmp_machine.Machine.levels m + 1) 0 in
  let choose ~order arr =
    let slots = Array.length arr in
    let index = cursors.(order) mod slots in
    cursors.(order) <- (index + 1) mod slots;
    index
  in
  make m ~name:"round-robin" ~choose

(* Not built on [make]: sampling two candidates only needs two
   O(log N) subtree-max queries, not the full per-level load scan. *)
let two_choice m ~rng : Allocator.t =
  let table = Ptable.create 64 in
  let loads = Ptable.loads table m in
  let assign (task : Task.t) =
    if task.size > Pmp_machine.Machine.size m then
      invalid_arg "two-choice.assign: task larger than machine";
    let order = Task.order task in
    let slots = Sub.count_at_order m order in
    let a = Pmp_prng.Splitmix64.int rng slots in
    let b = Pmp_prng.Splitmix64.int rng slots in
    let sub_of i = Sub.make m ~order ~index:i in
    let la = Load_index.max_load_in loads (sub_of a)
    and lb = Load_index.max_load_in loads (sub_of b) in
    let index = if la < lb then a else if lb < la then b else min a b in
    let sub = sub_of index in
    let placement = Placement.direct sub in
    Ptable.replace table task placement;
    { Allocator.placement; moves = [] }
  in
  let remove id =
    match Ptable.remove table id with
    | _ -> ()
    | exception Not_found -> invalid_arg "two-choice.remove: unknown task"
  in
  {
    Allocator.name = "two-choice";
    machine = m;
    assign;
    remove;
    table;
    realloc_events = (fun () -> 0);
    export = Allocator.no_export "two-choice";
  }

let worst_fit m =
  let choose ~order:_ arr =
    let target = max_load arr in
    let rec find i = if arr.(i) = target then i else find (i + 1) in
    find 0
  in
  make m ~name:"worst-fit" ~choose
