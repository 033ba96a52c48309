module Task = Pmp_workload.Task
module Load_index = Pmp_index.Load_index
module Probe = Pmp_telemetry.Probe

let create ?(probe = Probe.noop) ?state m ~name ~d ~choose : Allocator.t =
  let table = Ptable.create 64 in
  let active_size = ref 0 in
  let arrived_since_repack = ref 0 in
  let reallocs = ref 0 in
  Option.iter
    (fun (st : Allocator.state) ->
      List.iter
        (fun ((task : Task.t), (p : Placement.t)) ->
          Ptable.replace table task p;
          active_size := !active_size + task.size)
        st.tasks;
      arrived_since_repack := st.arrived;
      reallocs := st.repacks)
    state;
  let loads = Ptable.loads table m in
  let n = Pmp_machine.Machine.size m in
  let threshold = Realloc.threshold_size d ~machine_size:n in
  let repack_all () =
    let t0 = Probe.now probe in
    let actives = Ptable.to_list table in
    let _, packed = Repack.pack m (List.map fst actives) in
    incr reallocs;
    arrived_since_repack := 0;
    let moves =
      List.filter_map
        (fun ((t : Task.t), old_p) ->
          let new_p = Hashtbl.find packed t.id in
          Ptable.replace table t new_p;
          if Placement.equal old_p new_p then None
          else Some { Allocator.task = t; from_ = old_p; to_ = new_p })
        actives
    in
    Probe.record_repack probe ~moves:(List.length moves)
      ~elapsed:(Probe.now probe -. t0);
    moves
  in
  let assign (task : Task.t) =
    if task.size > n then invalid_arg (name ^ ".assign: task larger than machine");
    let order = Task.order task in
    arrived_since_repack := !arrived_since_repack + task.size;
    active_size := !active_size + task.size;
    let sub = choose loads ~order in
    Ptable.replace table task (Placement.direct sub);
    let budget_open =
      match threshold with
      | Some limit -> !arrived_since_repack >= limit
      | None -> false
    in
    let above_optimal =
      Load_index.max_load loads > Pmp_util.Pow2.ceil_div !active_size n
    in
    let moves =
      if budget_open && above_optimal then
        (* the arriving task is repacked too, but relocating it before
           it ever ran is not a migration — report only real moves *)
        List.filter
          (fun mv -> mv.Allocator.task.Task.id <> task.id)
          (repack_all ())
      else []
    in
    let _, placement = Ptable.find table task.id in
    { Allocator.placement; moves }
  in
  let remove id =
    match Ptable.remove table id with
    | task, _ -> active_size := !active_size - task.Task.size
    | exception Not_found -> invalid_arg (name ^ ".remove: unknown task")
  in
  {
    Allocator.name = name;
    machine = m;
    assign;
    remove;
    table;
    realloc_events = (fun () -> !reallocs);
    export =
      (fun () ->
        Allocator.state_of ~arrived:!arrived_since_repack ~repacks:!reallocs
          table);
  }
