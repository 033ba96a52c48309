module Machine = Pmp_machine.Machine
module Task = Pmp_workload.Task
module Allocator = Pmp_core.Allocator
module Mirror = Pmp_core.Mirror

type policy =
  | Greedy
  | Copies
  | Optimal
  | Periodic of Pmp_core.Realloc.t
  | Hybrid of Pmp_core.Realloc.t
  | Randomized of int

let policy_name = function
  | Greedy -> "greedy"
  | Copies -> "copies"
  | Optimal -> "optimal"
  | Periodic d -> Printf.sprintf "periodic(d=%s)" (Pmp_core.Realloc.to_string d)
  | Hybrid d -> Printf.sprintf "hybrid(d=%s)" (Pmp_core.Realloc.to_string d)
  | Randomized seed -> Printf.sprintf "randomized(seed=%d)" seed

type queued_task = { task : Task.t }

type t = {
  machine : Machine.t;
  policy : policy;
  alloc : Allocator.t;
  mirror : Mirror.t;
  capacity : int option;  (** PEs; [None] = unlimited (real-time model) *)
  queue : queued_task Queue.t;
  queued_ids : (Task.id, unit) Hashtbl.t;
  mutable next_id : int;
  mutable submitted : int;
  mutable completed : int;
  mutable peak_load : int;
  mutable tasks_migrated : int;
  mutable rev_history : Pmp_workload.Event.t list;
      (** allocator-visible events, newest first *)
}

let build_allocator policy machine =
  match policy with
  | Greedy -> Pmp_core.Greedy.create machine
  | Copies -> Pmp_core.Copies.create machine
  | Optimal -> Pmp_core.Optimal.create machine
  | Periodic d -> Pmp_core.Periodic.create machine ~d
  | Hybrid d -> Pmp_core.Hybrid.create machine ~d
  | Randomized seed ->
      Pmp_core.Randomized.create machine ~rng:(Pmp_prng.Splitmix64.create seed)

let create ~machine_size ~policy ?(admission_cap = None) () =
  if not (Pmp_util.Pow2.is_pow2 machine_size) then
    Error "machine size must be a positive power of two"
  else begin
    match admission_cap with
    | Some cap when cap <= 0.0 -> Error "admission cap must be positive"
    | _ ->
        let machine = Machine.create machine_size in
        Ok
          {
            machine;
            policy;
            alloc = build_allocator policy machine;
            mirror = Mirror.create machine;
            capacity =
              Option.map
                (fun cap -> int_of_float (cap *. float_of_int machine_size))
                admission_cap;
            queue = Queue.create ();
            queued_ids = Hashtbl.create 16;
            next_id = 0;
            submitted = 0;
            completed = 0;
            peak_load = 0;
            tasks_migrated = 0;
            rev_history = [];
          }
  end

type submission = Placed of Task.id * Pmp_core.Placement.t | Queued of Task.id

let fits t size =
  match t.capacity with
  | None -> true
  | Some cap -> Mirror.active_size t.mirror + size <= cap

let place t task =
  let resp = t.alloc.Allocator.assign task in
  t.rev_history <- Pmp_workload.Event.Arrive task :: t.rev_history;
  Mirror.apply_assign t.mirror task resp;
  t.tasks_migrated <- t.tasks_migrated + List.length resp.Allocator.moves;
  let load = Mirror.max_load t.mirror in
  if load > t.peak_load then t.peak_load <- load;
  resp.Allocator.placement

let drain t =
  let rec go () =
    match Queue.peek_opt t.queue with
    | Some q when fits t q.task.Task.size ->
        ignore (Queue.pop t.queue);
        Hashtbl.remove t.queued_ids q.task.Task.id;
        ignore (place t q.task);
        go ()
    | Some _ | None -> ()
  in
  go ()

let submit t ~size =
  if not (Pmp_util.Pow2.is_pow2 size) then
    Error "size must be a positive power of two"
  else if size > Machine.size t.machine then Error "size exceeds the machine"
  else begin
    match t.capacity with
    | Some cap when size > cap -> Error "size exceeds the admission capacity"
    | _ ->
        let task = Task.make ~id:t.next_id ~size in
        t.next_id <- t.next_id + 1;
        t.submitted <- t.submitted + 1;
        if Queue.is_empty t.queue && fits t size then
          Ok (Placed (task.Task.id, place t task))
        else begin
          Queue.push { task } t.queue;
          Hashtbl.replace t.queued_ids task.Task.id ();
          Ok (Queued task.Task.id)
        end
  end

let finish t id =
  if Hashtbl.mem t.queued_ids id then begin
    (* cancellation of queued work *)
    Hashtbl.remove t.queued_ids id;
    let survivors = Queue.create () in
    Queue.iter
      (fun q -> if q.task.Task.id <> id then Queue.push q survivors)
      t.queue;
    Queue.clear t.queue;
    Queue.transfer survivors t.queue;
    t.completed <- t.completed + 1;
    drain t;
    Ok ()
  end
  else begin
    match Mirror.placement t.mirror id with
    | None -> Error (Printf.sprintf "task %d is not active" id)
    | Some _ ->
        t.alloc.Allocator.remove id;
        Mirror.apply_remove t.mirror id;
        t.rev_history <- Pmp_workload.Event.Depart id :: t.rev_history;
        t.completed <- t.completed + 1;
        drain t;
        Ok ()
  end

let placement t id = Mirror.placement t.mirror id
let is_queued t id = Hashtbl.mem t.queued_ids id

type stats = {
  submitted : int;
  completed : int;
  queued_now : int;
  active_now : int;
  active_size : int;
  max_load : int;
  peak_load : int;
  optimal_now : int;
  reallocations : int;
  tasks_migrated : int;
}

let stats (t : t) =
  {
    submitted = t.submitted;
    completed = t.completed;
    queued_now = Queue.length t.queue;
    active_now = Mirror.num_active t.mirror;
    active_size = Mirror.active_size t.mirror;
    max_load = Mirror.max_load t.mirror;
    peak_load = t.peak_load;
    optimal_now =
      Pmp_util.Pow2.ceil_div (Mirror.active_size t.mirror)
        (Machine.size t.machine);
    reallocations = t.alloc.Allocator.realloc_events ();
    tasks_migrated = t.tasks_migrated;
  }

(* The shards of a partitioned machine own disjoint PEs, so the global
   max load is the max of the shard maxes (likewise the peaks); the
   counts add, and [optimal_now] is recomputed over the whole machine. *)
let merge_stats ~machine_size = function
  | [] -> invalid_arg "Cluster.merge_stats: no shards"
  | hd :: tl ->
      let acc =
        List.fold_left
          (fun a s ->
            {
              submitted = a.submitted + s.submitted;
              completed = a.completed + s.completed;
              queued_now = a.queued_now + s.queued_now;
              active_now = a.active_now + s.active_now;
              active_size = a.active_size + s.active_size;
              max_load = max a.max_load s.max_load;
              peak_load = max a.peak_load s.peak_load;
              optimal_now = 0;
              reallocations = a.reallocations + s.reallocations;
              tasks_migrated = a.tasks_migrated + s.tasks_migrated;
            })
          hd tl
      in
      {
        acc with
        optimal_now = Pmp_util.Pow2.ceil_div acc.active_size machine_size;
      }

let leaf_loads t = Mirror.leaf_loads t.mirror
let machine_size t = Machine.size t.machine

let history t =
  Pmp_workload.Sequence.of_events_exn (List.rev t.rev_history)

let events t = List.rev t.rev_history

let queued_tasks t =
  List.rev
    (Queue.fold
       (fun acc q -> (q.task.Task.id, q.task.Task.size) :: acc)
       [] t.queue)

let next_id t = t.next_id
let policy t = t.policy
let admission_capacity t = t.capacity

(* Rebuild a cluster from externalised state (snapshot + WAL replay).
   The allocator, mirror, peak load and migration count are all
   deterministic functions of the event history for a fixed policy, so
   they are reconstructed by replaying the events through the same code
   path live traffic took; only the queue and the submit/complete
   counters (which queued cancellations decouple from the history) are
   taken from the caller. *)
let restore ~machine_size ~policy ?(admission_cap = None) ~events:evs ~queued
    ~next_id ~submitted ~completed () =
  let ( let* ) = Result.bind in
  let* t = create ~machine_size ~policy ~admission_cap () in
  let* seq = Pmp_workload.Sequence.of_events evs in
  if not (Pmp_workload.Sequence.fits seq ~machine_size) then
    Error "history contains a task larger than the machine"
  else begin
    List.iter
      (fun ev ->
        match ev with
        | Pmp_workload.Event.Arrive task -> ignore (place t task)
        | Pmp_workload.Event.Depart id ->
            t.alloc.Allocator.remove id;
            Mirror.apply_remove t.mirror id;
            t.rev_history <- Pmp_workload.Event.Depart id :: t.rev_history)
      evs;
    let used = Hashtbl.create 64 in
    List.iter
      (function
        | Pmp_workload.Event.Arrive task -> Hashtbl.replace used task.Task.id ()
        | Pmp_workload.Event.Depart _ -> ())
      evs;
    let queued_ok =
      List.for_all
        (fun (id, size) ->
          let fresh = id >= 0 && not (Hashtbl.mem used id) in
          Hashtbl.replace used id ();
          fresh && Pmp_util.Pow2.is_pow2 size && size <= machine_size
          && match t.capacity with Some cap -> size <= cap | None -> true)
        queued
    in
    if not queued_ok then Error "queued tasks are inconsistent with the history"
    else if queued <> [] && t.capacity = None then
      Error "queued tasks without an admission capacity"
    else if Hashtbl.fold (fun id () acc -> max acc id) used (-1) >= next_id then
      Error "next id collides with a used task id"
    else begin
      List.iter
        (fun (id, size) ->
          let task = Task.make ~id ~size in
          Queue.push { task } t.queue;
          Hashtbl.replace t.queued_ids id ())
        queued;
      let departed =
        List.length
          (List.filter
             (function Pmp_workload.Event.Depart _ -> true | _ -> false)
             evs)
      in
      if completed < departed then
        Error "completed count below the departures in the history"
      else if
        submitted - completed
        <> Mirror.num_active t.mirror + Queue.length t.queue
      then Error "submitted/completed counters do not balance the live tasks"
      else begin
        t.next_id <- next_id;
        t.submitted <- submitted;
        t.completed <- completed;
        Ok t
      end
    end
  end
