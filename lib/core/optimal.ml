module Task = Pmp_workload.Task

let create ?state m : Allocator.t =
  let table = Ptable.create 64 in
  let stack = ref (Copystack.create m) in
  let reallocs = ref 0 in
  Option.iter
    (fun (st : Allocator.state) ->
      Copystack.restore !stack table st;
      reallocs := st.repacks)
    state;
  let assign (task : Task.t) =
    if task.size > Pmp_machine.Machine.size m then
      invalid_arg "Optimal.assign: task larger than machine";
    let actives = Ptable.to_list table in
    let all_tasks = task :: List.map fst actives in
    let new_stack, packed = Repack.pack m all_tasks in
    stack := new_stack;
    incr reallocs;
    let moves =
      List.filter_map
        (fun ((t : Task.t), old_p) ->
          let new_p = Hashtbl.find packed t.id in
          Ptable.replace table t new_p;
          if Placement.equal old_p new_p then None
          else Some { Allocator.task = t; from_ = old_p; to_ = new_p })
        actives
    in
    let placement = Hashtbl.find packed task.id in
    Ptable.replace table task placement;
    { Allocator.placement; moves }
  in
  let remove id =
    match Ptable.remove table id with
    | _, p -> Copystack.free !stack p
    | exception Not_found -> invalid_arg "Optimal.remove: unknown task"
  in
  {
    Allocator.name = "optimal";
    machine = m;
    assign;
    remove;
    table;
    realloc_events = (fun () -> !reallocs);
    export = (fun () -> Allocator.state_of ~repacks:!reallocs table);
  }
