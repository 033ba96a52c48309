module Task = Pmp_workload.Task
module Probe = Pmp_telemetry.Probe

let copy_branch ?state m ~d ~eager ~name ~probe : Allocator.t =
  let table = Ptable.create 64 in
  let stack = ref (Copystack.create m) in
  let arrived_since_repack = ref 0 in
  let reallocs = ref 0 in
  Option.iter
    (fun (st : Allocator.state) ->
      Copystack.restore !stack table st;
      arrived_since_repack := st.arrived;
      reallocs := st.repacks)
    state;
  let threshold =
    Realloc.threshold_size d ~machine_size:(Pmp_machine.Machine.size m)
  in
  (* Repack every active task plus the arriving one; returns the moves
     of previously-active tasks (the newcomer is not a "move"). *)
  let repack_with (task : Task.t) =
    let t0 = Probe.now probe in
    let actives = Ptable.to_list table in
    let new_stack, packed = Repack.pack m (task :: List.map fst actives) in
    stack := new_stack;
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
    (Hashtbl.find packed task.id, moves)
  in
  let assign (task : Task.t) =
    if task.size > Pmp_machine.Machine.size m then
      invalid_arg "Periodic.assign: task larger than machine";
    let order = Task.order task in
    arrived_since_repack := !arrived_since_repack + task.size;
    let budget_open =
      match threshold with
      | Some limit -> !arrived_since_repack >= limit
      | None -> false
    in
    let needs_room = not (Copystack.can_alloc !stack ~order) in
    let placement, moves =
      if budget_open && (eager || needs_room) then repack_with task
      else (Copystack.alloc !stack ~order, [])
    in
    Ptable.replace table task placement;
    { Allocator.placement; moves }
  in
  let remove id =
    match Ptable.remove table id with
    | _, p -> Copystack.free !stack p
    | exception Not_found -> invalid_arg "Periodic.remove: unknown task"
  in
  {
    Allocator.name;
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

let create ?(force_copies = false) ?(eager = false) ?(probe = Probe.noop)
    ?state m ~d =
  let name = Printf.sprintf "periodic(d=%s)" (Realloc.to_string d) in
  if (not force_copies) && Realloc.exceeds_greedy_threshold d m then
    {
      (Greedy.create ~probe ?state m) with
      Allocator.name = name ^ "=greedy";
    }
  else
    copy_branch ?state m ~d ~eager ~probe
      ~name:(if eager then name ^ ",eager" else name)
