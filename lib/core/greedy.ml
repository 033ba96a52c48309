module Task = Pmp_workload.Task
module Load_view = Pmp_index.Load_view
module Probe = Pmp_telemetry.Probe

let create ?(probe = Probe.noop) ?(backend = Load_view.Indexed) ?state m :
    Allocator.t =
  let loads = Load_view.create ~backend m in
  let table = Ptable.create 64 in
  Option.iter
    (fun (st : Allocator.state) ->
      List.iter
        (fun (task, (p : Placement.t)) ->
          Ptable.replace table task p;
          Load_view.add loads p.sub 1)
        st.tasks)
    state;
  let assign (task : Task.t) =
    if task.size > Pmp_machine.Machine.size m then
      invalid_arg "Greedy.assign: task larger than machine";
    let t0 = Probe.now probe in
    let _, sub = Load_view.min_max_at_order loads (Task.order task) in
    Probe.record_placement probe ~elapsed:(Probe.now probe -. t0);
    Load_view.add loads sub 1;
    let placement = Placement.direct sub in
    Ptable.replace table task placement;
    { Allocator.placement; moves = [] }
  in
  let remove id =
    match Ptable.find_opt table id with
    | None -> invalid_arg "Greedy.remove: unknown task"
    | Some (_, p) ->
        Load_view.add loads p.sub (-1);
        Ptable.remove table id
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
