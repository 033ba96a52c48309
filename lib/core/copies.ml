module Task = Pmp_workload.Task

let create ?(fit = Copystack.Leftmost) ?state m : Allocator.t =
  let stack = Copystack.create ~fit m in
  let table = Ptable.create 64 in
  Option.iter (Copystack.restore stack table) state;
  let assign (task : Task.t) =
    if task.size > Pmp_machine.Machine.size m then
      invalid_arg "Copies.assign: task larger than machine";
    let placement = Copystack.alloc stack ~order:(Task.order task) in
    Ptable.replace table task placement;
    { Allocator.placement; moves = [] }
  in
  let remove id =
    match Ptable.remove table id with
    | _, p -> Copystack.free stack p
    | exception Not_found -> invalid_arg "Copies.remove: unknown task"
  in
  {
    Allocator.name =
      (match fit with
      | Copystack.Leftmost -> "copies"
      | Copystack.Best_fit -> "copies-bestfit");
    machine = m;
    assign;
    remove;
    table;
    realloc_events = (fun () -> 0);
    export = (fun () -> Allocator.state_of table);
  }
