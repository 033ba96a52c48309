module Sub = Pmp_machine.Submachine
module Task = Pmp_workload.Task

type move = { task : Task.t; from_ : Placement.t; to_ : Placement.t }
type response = { placement : Placement.t; moves : move list }

type state = {
  tasks : (Task.t * Placement.t) list;
  arrived : int;
  repacks : int;
  rng : int64;
}

type t = {
  name : string;
  machine : Pmp_machine.Machine.t;
  assign : Task.t -> response;
  remove : Task.id -> unit;
  table : Ptable.t;
  realloc_events : unit -> int;
  export : unit -> state;
}

let placements t = Ptable.to_list t.table

let state_of ?(arrived = 0) ?(repacks = 0) ?(rng = 0L) table =
  let by_id ((a : Task.t), _) ((b : Task.t), _) = Int.compare a.id b.id in
  { tasks = List.sort by_id (Ptable.to_list table); arrived; repacks; rng }

let no_export name () =
  invalid_arg (name ^ ": this allocator has no exportable state")

let sub_in_machine machine sub =
  Sub.order sub >= 0
  && Sub.order sub <= Pmp_machine.Machine.levels machine
  && Sub.first_leaf sub >= 0
  && Sub.last_leaf sub < Pmp_machine.Machine.size machine

let check_state machine st =
  let n = Pmp_machine.Machine.size machine in
  let rec go prev = function
    | [] -> Ok ()
    | ((task : Task.t), (p : Placement.t)) :: rest ->
        if task.id <= prev then
          Error
            (Printf.sprintf "task ids are not distinct and ascending (%d after %d)"
               task.id prev)
        else if not (Pmp_util.Pow2.is_pow2 task.size && task.size <= n) then
          Error
            (Printf.sprintf "task %d has size %d, not a power of two within the machine"
               task.id task.size)
        else if p.copy < 0 || not (sub_in_machine machine p.sub) then
          Error (Printf.sprintf "task %d is placed outside the machine" task.id)
        else if Sub.size p.sub <> task.size then
          Error
            (Printf.sprintf "task %d of size %d is placed on a submachine of size %d"
               task.id task.size (Sub.size p.sub))
        else go task.id rest
  in
  if st.arrived < 0 || st.repacks < 0 then Error "negative allocator counters"
  else go (-1) st.tasks

let check_response ?active alloc task resp =
  let check_one what (task : Task.t) (p : Placement.t) =
    if Sub.size p.sub <> task.Task.size then
      Error
        (Printf.sprintf "%s: task %d of size %d placed on submachine of size %d"
           what task.Task.id task.Task.size (Sub.size p.sub))
    else if not (sub_in_machine alloc.machine p.sub) then
      Error (Printf.sprintf "%s: task %d placed outside the machine" what task.Task.id)
    else Ok ()
  in
  match check_one "placement" task resp.placement with
  | Error _ as e -> e
  | Ok () ->
      let seen_ids = Hashtbl.create 8 in
      let check_move mv =
        let id = mv.task.Task.id in
        if id = task.Task.id then
          Error
            (Printf.sprintf "move: arriving task %d listed among the moves" id)
        else if Hashtbl.mem seen_ids id then
          Error (Printf.sprintf "move: task %d moved twice in one response" id)
        else begin
          Hashtbl.add seen_ids id ();
          match active with
          | Some is_active when not (is_active id) ->
              Error (Printf.sprintf "move: task %d is not currently active" id)
          | Some _ | None -> begin
              match check_one "move source" mv.task mv.from_ with
              | Error _ as e -> e
              | Ok () -> check_one "move" mv.task mv.to_
            end
        end
      in
      let rec moves = function
        | [] -> Ok ()
        | mv :: rest -> begin
            match check_move mv with Error _ as e -> e | Ok () -> moves rest
          end
      in
      moves resp.moves
