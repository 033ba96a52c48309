module Machine = Pmp_machine.Machine
module Sequence = Pmp_workload.Sequence
module Task = Pmp_workload.Task
module Event = Pmp_workload.Event
module Allocator = Pmp_core.Allocator
module Mirror = Pmp_core.Mirror
module Oracle = Pmp_oracle.Oracle
module Probe = Pmp_telemetry.Probe
module Placement = Pmp_core.Placement

type result = {
  allocator_name : string;
  machine_size : int;
  events : int;
  max_load : int;
  optimal_load : int;
  ratio : float;
  load_trajectory : int array;
  opt_trajectory : int array;
  realloc_events : int;
  tasks_moved : int;
  migration_traffic : int;
  final_leaf_loads : int array;
  final_imbalance : float;
}

let run ?(check = false) ?oracle ?cost ?(telemetry = Probe.noop)
    (alloc : Allocator.t) seq =
  let n = Machine.size alloc.machine in
  if not (Sequence.fits seq ~machine_size:n) then
    invalid_arg "Engine.run: sequence has tasks larger than the machine";
  let events = Sequence.events seq in
  let mirror = Mirror.create alloc.machine in
  let observer = Option.map (fun spec -> Oracle.Observer.create spec alloc) oracle in
  (* [""] = no oracle, ["ok"] = audited and passed; a violation emits
     its trace record (so the trace's last line carries the verdict)
     and then fails the run, as before. *)
  let observe ~emit f =
    match observer with
    | None -> ""
    | Some obs -> begin
        match f obs with
        | Ok () -> "ok"
        | Error v ->
            let msg = Format.asprintf "%a" Oracle.pp_violation v in
            emit msg;
            invalid_arg ("Engine.run: oracle: " ^ msg)
      end
  in
  let load_trajectory = Array.make (Array.length events) 0 in
  let opt_trajectory = Array.make (Array.length events) 0 in
  let tasks_moved = ref 0 and traffic = ref 0 in
  let account_moves moves =
    tasks_moved := !tasks_moved + List.length moves;
    match cost with
    | None -> 0
    | Some model ->
        let bytes = Cost.moves_cost model moves in
        traffic := !traffic + bytes;
        bytes
  in
  let state () =
    ( Mirror.max_load mirror,
      Pmp_util.Pow2.ceil_div (Mirror.active_size mirror) n,
      Mirror.num_active mirror )
  in
  Array.iteri
    (fun i ev ->
      let t0 = Probe.elapsed telemetry in
      begin
        match (ev : Event.t) with
        | Arrive task ->
            let resp = alloc.assign task in
            let t1 = Probe.elapsed telemetry in
            if check then begin
              let active id = Mirror.placement mirror id <> None in
              match Allocator.check_response ~active alloc task resp with
              | Ok () -> ()
              | Error e -> invalid_arg ("Engine.run: bad response: " ^ e)
            end;
            let record verdict =
              let load, lstar, active = state () in
              Probe.record_arrival telemetry ~seq:i ~task:task.Task.id
                ~size:task.Task.size
                ~placement:
                  (Format.asprintf "%a" Placement.pp resp.Allocator.placement)
                ~moves:(List.length resp.Allocator.moves)
                ~traffic:
                  (match cost with
                  | None -> 0
                  | Some model -> Cost.moves_cost model resp.Allocator.moves)
                ~load ~lstar ~active ~ts:t0 ~dur:(t1 -. t0) ~oracle:verdict
            in
            let verdict =
              observe ~emit:record (fun obs ->
                  Oracle.Observer.observe_assign obs task resp)
            in
            Mirror.apply_assign mirror task resp;
            let move_traffic = account_moves resp.moves in
            if Probe.enabled telemetry then begin
              let load, lstar, active = state () in
              Probe.record_arrival telemetry ~seq:i ~task:task.Task.id
                ~size:task.Task.size
                ~placement:
                  (Format.asprintf "%a" Placement.pp resp.Allocator.placement)
                ~moves:(List.length resp.Allocator.moves)
                ~traffic:move_traffic ~load ~lstar ~active ~ts:t0
                ~dur:(t1 -. t0) ~oracle:verdict
            end
        | Depart id ->
            alloc.remove id;
            let t1 = Probe.elapsed telemetry in
            let record verdict =
              let load, lstar, active = state () in
              Probe.record_departure telemetry ~seq:i ~task:id ~load ~lstar
                ~active ~ts:t0 ~dur:(t1 -. t0) ~oracle:verdict
            in
            let verdict =
              observe ~emit:record (fun obs ->
                  Oracle.Observer.observe_remove obs id)
            in
            Mirror.apply_remove mirror id;
            if Probe.enabled telemetry then begin
              let load, lstar, active = state () in
              Probe.record_departure telemetry ~seq:i ~task:id ~load ~lstar
                ~active ~ts:t0 ~dur:(t1 -. t0) ~oracle:verdict
            end
      end;
      if check then begin
        match Mirror.check_against mirror alloc with
        | Ok () -> ()
        | Error e -> invalid_arg ("Engine.run: mirror mismatch: " ^ e)
      end;
      load_trajectory.(i) <- Mirror.max_load mirror;
      opt_trajectory.(i) <-
        Pmp_util.Pow2.ceil_div (Mirror.active_size mirror) n)
    events;
  let max_load = Array.fold_left max 0 load_trajectory in
  let optimal_load = Sequence.optimal_load seq ~machine_size:n in
  {
    allocator_name = alloc.name;
    machine_size = n;
    events = Array.length events;
    max_load;
    optimal_load;
    ratio = float_of_int max_load /. float_of_int (max 1 optimal_load);
    load_trajectory;
    opt_trajectory;
    realloc_events = alloc.realloc_events ();
    tasks_moved = !tasks_moved;
    migration_traffic = !traffic;
    final_leaf_loads = Mirror.leaf_loads mirror;
    final_imbalance = Mirror.imbalance mirror;
  }

let max_ratio_over_time r =
  let best = ref 0.0 in
  Array.iteri
    (fun i load ->
      let opt = max 1 r.opt_trajectory.(i) in
      let ratio = float_of_int load /. float_of_int opt in
      if ratio > !best then best := ratio)
    r.load_trajectory;
  !best
