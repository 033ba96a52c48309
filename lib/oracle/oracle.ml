module Machine = Pmp_machine.Machine
module Sub = Pmp_machine.Submachine
module Task = Pmp_workload.Task
module Event = Pmp_workload.Event
module Sequence = Pmp_workload.Sequence
module Allocator = Pmp_core.Allocator
module Placement = Pmp_core.Placement
module Mirror = Pmp_core.Mirror
module Realloc = Pmp_core.Realloc
module Ptable = Pmp_core.Ptable

type load_bound =
  | Exact
  | Within_factor of int
  | Within_plus of int
  | Unbounded

type spec = {
  bound : load_bound;
  budget : Pmp_core.Realloc.t option;
  disjoint_copies : bool;
}

let structural_only = { bound = Unbounded; budget = None; disjoint_copies = false }

type kind = Structural | Accounting | Load | Budget

type violation = {
  step : int;
  event : Event.t;
  kind : kind;
  message : string;
}

let kind_name = function
  | Structural -> "structural"
  | Accounting -> "accounting"
  | Load -> "load bound"
  | Budget -> "realloc budget"

let pp_violation ppf v =
  Format.fprintf ppf "[%s] event %d (%a): %s" (kind_name v.kind) v.step
    Event.pp v.event v.message

module Observer = struct
  type t = {
    spec : spec;
    alloc : Allocator.t;
    mirror : Mirror.t;
    n : int;
    mutable step : int; (* index of the event being observed *)
    mutable peak_size : int; (* running peak cumulative active size *)
    mutable peak_load : int;
    full_ids : (Task.id, unit) Hashtbl.t; (* active size-N tasks *)
    mutable full_peak : int;
    mutable last_reallocs : int;
    mutable arrived_since_repack : int; (* PEs arrived since last repack *)
  }

  let create spec (alloc : Allocator.t) =
    let machine = alloc.Allocator.machine in
    let mirror = Mirror.create machine in
    let full_ids = Hashtbl.create 8 in
    Ptable.fold
      (fun ((task : Task.t), p) () ->
        Mirror.apply_assign mirror task { Allocator.placement = p; moves = [] };
        if task.Task.size = Machine.size machine then
          Hashtbl.replace full_ids task.Task.id ())
      alloc.Allocator.table ();
    {
      spec;
      alloc;
      mirror;
      n = Machine.size machine;
      step = -1;
      peak_size = Mirror.active_size mirror;
      peak_load = Mirror.max_load mirror;
      full_ids;
      full_peak = Hashtbl.length full_ids;
      last_reallocs = alloc.Allocator.realloc_events ();
      arrived_since_repack = 0;
    }

  let peak_load t = t.peak_load
  let optimal_load t = Pmp_util.Pow2.ceil_div t.peak_size t.n

  let fail t event kind fmt =
    Printf.ksprintf
      (fun message -> Error { step = t.step; event; kind; message })
      fmt

  let ( let* ) = Result.bind

  (* --- the individual checks ------------------------------------- *)

  let check_structure t task (resp : Allocator.response) ev =
    let active id = Mirror.placement t.mirror id <> None in
    if active task.Task.id then
      fail t ev Structural "arriving task %d is already active" task.Task.id
    else begin
      match Allocator.check_response ~active t.alloc task resp with
      | Ok () -> Ok ()
      | Error msg -> fail t ev Structural "%s" msg
    end

  (* Each move must depart from where the task actually sits — the
     mirror would also catch this, but with a raise, not a report. *)
  let check_move_sources t (resp : Allocator.response) ev =
    let rec go = function
      | [] -> Ok ()
      | (mv : Allocator.move) :: rest -> begin
          match Mirror.placement t.mirror mv.task.Task.id with
          | Some p when Placement.equal p mv.from_ -> go rest
          | Some _ ->
              fail t ev Structural
                "move: task %d moved from a placement it does not occupy"
                mv.task.Task.id
          | None ->
              fail t ev Structural "move: task %d is not currently active"
                mv.task.Task.id
        end
    in
    go resp.Allocator.moves

  let spans_overlap a b = Sub.first_leaf a <= Sub.last_leaf b && Sub.first_leaf b <= Sub.last_leaf a

  (* Copy-based packing invariant: live tasks sharing a copy number
     must occupy disjoint leaf spans. Only placements changed by this
     event need checking against the standing ones. *)
  let check_disjoint_copies t changed ev =
    if not t.spec.disjoint_copies then Ok ()
    else begin
      let actives = Mirror.active t.mirror in
      let rec go = function
        | [] -> Ok ()
        | ((task : Task.t), (p : Placement.t)) :: rest ->
            let clash =
              List.find_opt
                (fun ((other : Task.t), (q : Placement.t)) ->
                  other.Task.id <> task.Task.id
                  && q.Placement.copy = p.Placement.copy
                  && spans_overlap q.Placement.sub p.Placement.sub)
                actives
            in
            begin
              match clash with
              | Some ((other : Task.t), (q : Placement.t)) ->
                  fail t ev Structural
                    "tasks %d and %d overlap on copy %d (leaves %d..%d vs %d..%d)"
                    task.Task.id other.Task.id p.Placement.copy
                    (Sub.first_leaf p.Placement.sub)
                    (Sub.last_leaf p.Placement.sub)
                    (Sub.first_leaf q.Placement.sub)
                    (Sub.last_leaf q.Placement.sub)
              | None -> go rest
            end
      in
      go changed
    end

  let check_accounting t ev =
    match Mirror.check_against t.mirror t.alloc with
    | Ok () -> Ok ()
    | Error msg -> fail t ev Accounting "%s" msg

  let check_budget t ~moves ~departure ev =
    let now = t.alloc.Allocator.realloc_events () in
    let delta = now - t.last_reallocs in
    t.last_reallocs <- now;
    if delta < 0 then
      fail t ev Budget "realloc_events decreased (%d -> %d)" (now - delta) now
    else begin
      match t.spec.budget with
      | None ->
          if delta > 0 then t.arrived_since_repack <- 0;
          Ok ()
      | Some budget ->
          if departure && delta > 0 then
            fail t ev Budget
              "%d reallocation(s) during a departure (moves cannot be reported)"
              delta
          else if delta = 0 && moves <> [] then
            fail t ev Budget
              "%d task move(s) reported outside any reallocation event"
              (List.length moves)
          else if delta = 0 then Ok ()
          else begin
            match Realloc.threshold_size budget ~machine_size:t.n with
            | None ->
                fail t ev Budget "reallocation with d = inf (budget forbids any)"
            | Some limit ->
                if t.arrived_since_repack < delta * limit then
                  fail t ev Budget
                    "repack after only %d arrived PEs (budget needs %d%s)"
                    t.arrived_since_repack (delta * limit)
                    (if delta > 1 then
                       Printf.sprintf " for %d repacks" delta
                     else "")
                else begin
                  t.arrived_since_repack <- 0;
                  Ok ()
                end
          end
    end

  let check_load t ev =
    let load = Mirror.max_load t.mirror in
    if load > t.peak_load then t.peak_load <- load;
    let lstar = optimal_load t in
    match t.spec.bound with
    | Unbounded -> Ok ()
    | Exact ->
        if t.peak_load <> lstar then
          fail t ev Load "peak load %d but Theorem 3.1 demands exactly L* = %d"
            t.peak_load lstar
        else Ok ()
    | Within_factor f ->
        let limit = (f * lstar) + t.full_peak in
        if t.peak_load > limit then
          fail t ev Load
            "peak load %d exceeds %d * L*(=%d) + %d full-machine task(s) = %d"
            t.peak_load f lstar t.full_peak limit
        else Ok ()
    | Within_plus k ->
        if t.peak_load > lstar + k then
          fail t ev Load "peak load %d exceeds L*(=%d) + %d = %d" t.peak_load
            lstar k (lstar + k)
        else Ok ()

  (* --- event entry points ----------------------------------------- *)

  let observe_assign t (task : Task.t) (resp : Allocator.response) =
    t.step <- t.step + 1;
    let ev = Event.Arrive task in
    let* () = check_structure t task resp ev in
    let* () = check_move_sources t resp ev in
    Mirror.apply_assign t.mirror task resp;
    t.arrived_since_repack <- t.arrived_since_repack + task.Task.size;
    if task.Task.size = t.n then begin
      Hashtbl.replace t.full_ids task.Task.id ();
      if Hashtbl.length t.full_ids > t.full_peak then
        t.full_peak <- Hashtbl.length t.full_ids
    end;
    if Mirror.active_size t.mirror > t.peak_size then
      t.peak_size <- Mirror.active_size t.mirror;
    let changed =
      (task, resp.Allocator.placement)
      :: List.map
           (fun (mv : Allocator.move) -> (mv.Allocator.task, mv.Allocator.to_))
           resp.Allocator.moves
    in
    let* () = check_disjoint_copies t changed ev in
    let* () = check_accounting t ev in
    let* () = check_budget t ~moves:resp.Allocator.moves ~departure:false ev in
    check_load t ev

  let observe_remove t id =
    t.step <- t.step + 1;
    let ev = Event.Depart id in
    match Mirror.placement t.mirror id with
    | None -> fail t ev Structural "departure of inactive task %d" id
    | Some _ ->
        Mirror.apply_remove t.mirror id;
        Hashtbl.remove t.full_ids id;
        let* () = check_accounting t ev in
        let* () = check_budget t ~moves:[] ~departure:true ev in
        check_load t ev
end

let run spec ~make seq =
  let alloc = make () in
  let obs = Observer.create spec alloc in
  let events = Sequence.events seq in
  let n = Array.length events in
  let rec go i =
    if i = n then Ok ()
    else begin
      let step (ev : Event.t) =
        match ev with
        | Arrive task -> begin
            match alloc.Allocator.assign task with
            | resp -> Observer.observe_assign obs task resp
            | exception e ->
                Error
                  {
                    step = i;
                    event = ev;
                    kind = Structural;
                    message =
                      Printf.sprintf "allocator raised %s on arrival"
                        (Printexc.to_string e);
                  }
          end
        | Depart id -> begin
            match alloc.Allocator.remove id with
            | () -> Observer.observe_remove obs id
            | exception e ->
                Error
                  {
                    step = i;
                    event = ev;
                    kind = Structural;
                    message =
                      Printf.sprintf "allocator raised %s on departure"
                        (Printexc.to_string e);
                  }
          end
      in
      match step events.(i) with Ok () -> go (i + 1) | Error _ as e -> e
    end
  in
  go 0

type counterexample = {
  first : violation;
  final : violation;
  trace : Sequence.t;
  original_events : int;
  replays : int;
}

let check ?(shrink = true) spec ~make seq =
  match run spec ~make seq with
  | Ok () -> Ok ()
  | Error first ->
      if not shrink then
        Error
          {
            first;
            final = first;
            trace = seq;
            original_events = Sequence.length seq;
            replays = 0;
          }
      else begin
        let counter = ref 0 in
        let fails cand = Result.is_error (run spec ~make cand) in
        let trace = Shrink.shrink_count ~fails seq counter in
        let final =
          match run spec ~make trace with
          | Error v -> v
          | Ok () -> first (* unreachable: the shrinker preserves failure *)
        in
        Error
          {
            first;
            final;
            trace;
            original_events = Sequence.length seq;
            replays = !counter;
          }
      end

let pp_counterexample ppf c =
  Format.fprintf ppf
    "@[<v>violation : %a@,shrunk    : %d events (from %d, %d replays)@,trace     :@,"
    pp_violation c.final (Sequence.length c.trace) c.original_events c.replays;
  List.iteri
    (fun i ev -> Format.fprintf ppf "  %3d  %a@," i Event.pp ev)
    (Sequence.to_list c.trace);
  Format.fprintf ppf "@]"
