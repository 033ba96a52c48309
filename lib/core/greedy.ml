module Task = Pmp_workload.Task
module Load_index = Pmp_index.Load_index
module Probe = Pmp_telemetry.Probe

let create ?(probe = Probe.noop) ?state m : Allocator.t =
  let table = Ptable.create 64 in
  Option.iter
    (fun (st : Allocator.state) ->
      List.iter (fun (task, p) -> Ptable.replace table task p) st.tasks)
    state;
  let loads = Ptable.loads table m in
  let assign (task : Task.t) =
    if task.size > Pmp_machine.Machine.size m then
      invalid_arg "Greedy.assign: task larger than machine";
    let t0 = Probe.now probe in
    let _, sub = Load_index.min_load_subtree loads ~order:(Task.order task) in
    Probe.record_placement probe ~elapsed:(Probe.now probe -. t0);
    let placement = Placement.direct sub in
    Ptable.replace table task placement;
    { Allocator.placement; moves = [] }
  in
  let remove id =
    match Ptable.remove table id with
    | _ -> ()
    | exception Not_found -> invalid_arg "Greedy.remove: unknown task"
  in
  {
    Allocator.name = "greedy";
    machine = m;
    assign;
    remove;
    table;
    realloc_events = (fun () -> 0);
    export = (fun () -> Allocator.state_of table);
  }
