module Task = Pmp_workload.Task
module Sub = Pmp_machine.Submachine

let create ?state m ~rng : Allocator.t =
  let table = Ptable.create 64 in
  Option.iter
    (fun (st : Allocator.state) ->
      List.iter (fun (task, p) -> Ptable.replace table task p) st.tasks)
    state;
  let assign (task : Task.t) =
    if task.size > Pmp_machine.Machine.size m then
      invalid_arg "Randomized.assign: task larger than machine";
    let order = Task.order task in
    let slots = Sub.count_at_order m order in
    let index = Pmp_prng.Splitmix64.int rng slots in
    let placement = Placement.direct (Sub.make m ~order ~index) in
    Ptable.replace table task placement;
    { Allocator.placement; moves = [] }
  in
  let remove id =
    match Ptable.remove table id with
    | _ -> ()
    | exception Not_found -> invalid_arg "Randomized.remove: unknown task"
  in
  {
    Allocator.name = "randomized";
    machine = m;
    assign;
    remove;
    table;
    realloc_events = (fun () -> 0);
    export =
      (fun () -> Allocator.state_of ~rng:(Pmp_prng.Splitmix64.state rng) table);
  }
