module Machine = Pmp_machine.Machine
module Task = Pmp_workload.Task
module Allocator = Pmp_core.Allocator
module Load_index = Pmp_index.Load_index
module Observer = Pmp_oracle.Oracle.Observer
module Ptable = Pmp_core.Ptable

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

type t = {
  machine : Machine.t;
  policy : policy;
  alloc : Allocator.t;
  loads : Load_index.t;  (** the allocator's table's own view *)
  capacity : int option;  (** PEs; [None] = unlimited (real-time model) *)
  queue : Task.t Queue.t;
      (** FIFO; a cancelled task stays in it, dead, until it reaches
          the head or the queue is compacted (see [compact]) *)
  queued_ids : (Task.id, unit) Hashtbl.t;  (** the live queued tasks *)
  mutable next_id : int;
  mutable submitted : int;
  mutable completed : int;
  mutable peak_load : int;
  mutable tasks_migrated : int;
  mutable audit : Observer.t option;  (** see {!start_audit} *)
  mutable audit_error : Pmp_oracle.Oracle.violation option;
}

let build_allocator ?state policy machine =
  match policy with
  | Greedy -> Pmp_core.Greedy.create ?state machine
  | Copies -> Pmp_core.Copies.create ?state machine
  | Optimal -> Pmp_core.Optimal.create ?state machine
  | Periodic d -> Pmp_core.Periodic.create ?state machine ~d
  | Hybrid d -> Pmp_core.Hybrid.create ?state machine ~d
  | Randomized seed ->
      let rng =
        match state with
        | Some (st : Allocator.state) -> Pmp_prng.Splitmix64.of_state st.rng
        | None -> Pmp_prng.Splitmix64.create seed
      in
      Pmp_core.Randomized.create ?state machine ~rng

let ( let* ) = Result.bind
let check b msg = if b then Ok () else Error msg

(* [create], or with [state] the allocator half of {!import}. *)
let make ?state ~machine_size ~policy ~admission_cap () =
  let* () =
    check
      (Pmp_util.Pow2.is_pow2 machine_size)
      "machine size must be a positive power of two"
  in
  let* () =
    check
      (match admission_cap with Some cap when cap <= 0.0 -> false | _ -> true)
      "admission cap must be positive"
  in
  let machine = Machine.create machine_size in
  let* () = Option.fold ~none:(Ok ()) ~some:(Allocator.check_state machine) state in
  let* alloc =
    try Ok (build_allocator ?state policy machine) with Invalid_argument e -> Error e
  in
  Ok
    {
      machine;
      policy;
      alloc;
      loads = Ptable.loads alloc.Allocator.table machine;
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
      audit = None;
      audit_error = None;
    }

let create ~machine_size ~policy ?(admission_cap = None) () =
  make ~machine_size ~policy ~admission_cap ()

type submission = Placed of Task.id * Pmp_core.Placement.t | Queued of Task.id

(* every PE counts each task covering it, so the loads sum to the
   active size *)
let active_size t = Load_index.total_load t.loads

let fits t size =
  match t.capacity with
  | None -> true
  | Some cap -> active_size t + size <= cap

(* The first violation ends the audit: the observer's mirror may no
   longer match after one. *)
let note_audit t = function
  | Ok () -> ()
  | Error v ->
      t.audit <- None;
      t.audit_error <- Some v

let rec check_moves table = function
  | [] -> ()
  | (mv : Allocator.move) :: rest ->
      let id = mv.task.Task.id in
      let landed =
        match Ptable.find table id with
        | _, p -> Pmp_core.Placement.equal p mv.to_
        | exception Not_found -> false
      in
      if not landed then
        invalid_arg
          (Printf.sprintf
             "Cluster: the allocator reports moving task %d where its table \
              does not hold it"
             id);
      check_moves table rest

let checked_assign (alloc : Allocator.t) (task : Task.t) =
  let table = alloc.Allocator.table in
  if Ptable.mem table task.id then
    invalid_arg (Printf.sprintf "Cluster: task %d is already placed" task.id);
  let resp = alloc.Allocator.assign task in
  check_moves table resp.Allocator.moves;
  resp

let place t task =
  let resp = checked_assign t.alloc task in
  (match t.audit with
  | Some obs -> note_audit t (Observer.observe_assign obs task resp)
  | None -> ());
  t.tasks_migrated <- t.tasks_migrated + List.length resp.Allocator.moves;
  let load = Load_index.max_load t.loads in
  if load > t.peak_load then t.peak_load <- load;
  resp.Allocator.placement

(* Admit from the head while it fits, dropping cancelled entries. *)
let rec drain t =
  if not (Queue.is_empty t.queue) then begin
    let q = Queue.peek t.queue in
    if not (Hashtbl.mem t.queued_ids q.Task.id) then begin
      ignore (Queue.pop t.queue);
      drain t
    end
    else if fits t q.Task.size then begin
      ignore (Queue.pop t.queue);
      Hashtbl.remove t.queued_ids q.Task.id;
      ignore (place t q);
      drain t
    end
  end

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
        if Hashtbl.length t.queued_ids = 0 && fits t size then
          Ok (Placed (task.Task.id, place t task))
        else begin
          Queue.push task t.queue;
          Hashtbl.replace t.queued_ids task.Task.id ();
          Ok (Queued task.Task.id)
        end
  end

(* Keep only the live entries, once the dead ones outnumber them: each
   compaction costs at most twice the cancellations since the last, so
   a cancellation is O(1) amortised. *)
let compact t =
  if Queue.length t.queue > 2 * Hashtbl.length t.queued_ids then begin
    let live = Queue.create () in
    Queue.iter
      (fun q -> if Hashtbl.mem t.queued_ids q.Task.id then Queue.push q live)
      t.queue;
    Queue.clear t.queue;
    Queue.transfer live t.queue
  end

let finish t id =
  if Hashtbl.mem t.queued_ids id then begin
    (* cancellation of queued work: its queue entry is now dead *)
    Hashtbl.remove t.queued_ids id;
    compact t;
    t.completed <- t.completed + 1;
    drain t;
    Ok ()
  end
  else if Ptable.mem t.alloc.Allocator.table id then begin
    t.alloc.Allocator.remove id;
    (match t.audit with
    | Some obs -> note_audit t (Observer.observe_remove obs id)
    | None -> ());
    t.completed <- t.completed + 1;
    drain t;
    Ok ()
  end
  else Error (Printf.sprintf "task %d is not active" id)

let placement t id = Ptable.placement t.alloc.Allocator.table id

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
    queued_now = Hashtbl.length t.queued_ids;
    active_now = Ptable.length t.alloc.Allocator.table;
    active_size = active_size t;
    max_load = Load_index.max_load t.loads;
    peak_load = t.peak_load;
    optimal_now = Pmp_util.Pow2.ceil_div (active_size t) (Machine.size t.machine);
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

let leaf_loads t = Load_index.leaf_loads t.loads
let window_load t ~order = fst (Load_index.min_load_subtree t.loads ~order)
let machine_size t = Machine.size t.machine

let queued_tasks t =
  List.rev
    (Queue.fold
       (fun acc (q : Task.t) ->
         if Hashtbl.mem t.queued_ids q.id then (q.id, q.size) :: acc else acc)
       [] t.queue)

let next_id t = t.next_id
let policy t = t.policy
let admission_capacity t = t.capacity

type state = {
  next_id : int;
  submitted : int;
  completed : int;
  peak_load : int;
  tasks_migrated : int;
  queued : (Task.id * int) list;
  alloc : Allocator.state;
}

let export (t : t) =
  {
    next_id = t.next_id;
    submitted = t.submitted;
    completed = t.completed;
    peak_load = t.peak_load;
    tasks_migrated = t.tasks_migrated;
    queued = queued_tasks t;
    alloc = t.alloc.Allocator.export ();
  }

(* The allocator checked its own half (see [make]); what is left is
   how the parts fit together: ids, the queue, the counters. *)
let import ~machine_size ~policy ?(admission_cap = None) (st : state) =
  let* () =
    check
      (List.for_all
         (fun (_, (p : Pmp_core.Placement.t)) -> p.copy < st.submitted)
         st.alloc.Allocator.tasks)
      "a placement's copy number exceeds the tasks ever submitted"
  in
  let* t = make ~state:st.alloc ~machine_size ~policy ~admission_cap () in
  let* () =
    check
      (List.for_all (fun ((task : Task.t), _) -> task.id < st.next_id)
         st.alloc.Allocator.tasks)
      "a placed task's id is not below the next id"
  in
  let* () =
    check (st.queued = [] || t.capacity <> None)
      "queued tasks without an admission capacity"
  in
  let* () =
    List.fold_left
      (fun acc (id, size) ->
        let* () = acc in
        if id < 0 || id >= st.next_id then
          Error (Printf.sprintf "queued task %d is outside the id range" id)
        else if Ptable.mem t.alloc.Allocator.table id || Hashtbl.mem t.queued_ids id
        then Error (Printf.sprintf "queued task %d is not distinct" id)
        else if
          not
            (Pmp_util.Pow2.is_pow2 size && size <= machine_size
            && match t.capacity with Some cap -> size <= cap | None -> true)
        then Error (Printf.sprintf "queued task %d has inadmissible size %d" id size)
        else begin
          Queue.push (Task.make ~id ~size) t.queue;
          Hashtbl.replace t.queued_ids id ();
          Ok ()
        end)
      (Ok ()) st.queued
  in
  let* () =
    check
      (match (t.capacity, Queue.peek_opt t.queue) with
      | Some cap, _ when active_size t > cap -> false
      | _, Some q -> not (fits t q.Task.size)
      | _, None -> true)
      "the active tasks and the queue head break the admission capacity"
  in
  let* () =
    check
      (0 <= st.completed && st.completed <= st.submitted
      && st.submitted <= st.next_id
      && st.submitted - st.completed
         = Ptable.length t.alloc.Allocator.table + Queue.length t.queue)
      "submitted/completed counters do not balance the live tasks"
  in
  let* () =
    check
      (st.peak_load >= Load_index.max_load t.loads && st.tasks_migrated >= 0)
      "peak load below the current load, or a negative migration count"
  in
  t.next_id <- st.next_id;
  t.submitted <- st.submitted;
  t.completed <- st.completed;
  t.peak_load <- st.peak_load;
  t.tasks_migrated <- st.tasks_migrated;
  Ok t

let start_audit (t : t) spec =
  t.audit <- Some (Observer.create spec t.alloc);
  t.audit_error <- None

let finish_audit (t : t) =
  t.audit <- None;
  match t.audit_error with None -> Ok () | Some v -> Error v
