(* The conformance oracle: structural rejections, the cross-allocator
   differential sweep, the theorem-bound sweep the ROADMAP wants as a
   tier-1 tripwire, and the delta-debugging shrinker — including
   deliberately broken allocators that must be caught with minimal
   counterexamples. *)

module Machine = Pmp_machine.Machine
module Sub = Pmp_machine.Submachine
module Task = Pmp_workload.Task
module Event = Pmp_workload.Event
module Sequence = Pmp_workload.Sequence
module Allocator = Pmp_core.Allocator
module Placement = Pmp_core.Placement
module Ptable = Pmp_core.Ptable
module Mirror = Pmp_core.Mirror
module Realloc = Pmp_core.Realloc
module Bounds = Pmp_core.Bounds
module Oracle = Pmp_oracle.Oracle
module Shrink = Pmp_oracle.Shrink
module Engine = Pmp_sim.Engine
module Builders = Pmp_cli.Builders

let spec_for name m ~d =
  match Builders.oracle_spec name m ~d with
  | Ok spec -> spec
  | Error (`Msg e) -> Alcotest.fail e

let make_for name m ~d ~seed () =
  match Builders.allocator name m ~d ~seed with
  | Ok alloc -> alloc
  | Error (`Msg e) -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* check_response rejections (the Allocator-level satellite)           *)

let sub m ~order ~index = Sub.make m ~order ~index

let move task ~from_ ~to_ = { Allocator.task; from_; to_ }

let response placement moves = { Allocator.placement; moves }

(* naive substring test; Str stays out of the test closure *)
let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_err msg result =
  match result with
  | Ok () -> Alcotest.failf "expected rejection (%s), got Ok" msg
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: message %S mentions it" msg e)
        true (contains ~needle:msg e)

let test_reject_move_outside_machine () =
  let m = Machine.create 8 in
  let big = Machine.create 32 in
  let alloc = Pmp_core.Greedy.create m in
  let t0 = Task.make ~id:0 ~size:2 in
  let mover = Task.make ~id:1 ~size:2 in
  let inside = Placement.direct (sub m ~order:1 ~index:0) in
  let outside = Placement.direct (sub big ~order:1 ~index:8) in
  (* destination beyond the last PE of the 8-leaf machine *)
  let resp =
    response
      (Placement.direct (sub m ~order:1 ~index:1))
      [ move mover ~from_:inside ~to_:outside ]
  in
  check_err "outside the machine"
    (Allocator.check_response ~active:(fun _ -> true) alloc t0 resp);
  (* and a move *source* outside the machine is just as invalid *)
  let resp_src =
    response
      (Placement.direct (sub m ~order:1 ~index:1))
      [ move mover ~from_:outside ~to_:inside ]
  in
  check_err "outside the machine"
    (Allocator.check_response ~active:(fun _ -> true) alloc t0 resp_src)

let test_reject_move_of_inactive_task () =
  let m = Machine.create 8 in
  let alloc = Pmp_core.Greedy.create m in
  let t0 = Task.make ~id:0 ~size:2 in
  let mover = Task.make ~id:7 ~size:2 in
  let a = Placement.direct (sub m ~order:1 ~index:0) in
  let b = Placement.direct (sub m ~order:1 ~index:2) in
  let resp =
    response (Placement.direct (sub m ~order:1 ~index:1)) [ move mover ~from_:a ~to_:b ]
  in
  check_err "not currently active"
    (Allocator.check_response ~active:(fun _ -> false) alloc t0 resp);
  (* without an active oracle the same response is structurally fine *)
  Helpers.check_ok (Allocator.check_response alloc t0 resp)

let test_reject_degenerate_moves () =
  let m = Machine.create 8 in
  let alloc = Pmp_core.Greedy.create m in
  let t0 = Task.make ~id:0 ~size:2 in
  let a = Placement.direct (sub m ~order:1 ~index:0) in
  let b = Placement.direct (sub m ~order:1 ~index:2) in
  let placement = Placement.direct (sub m ~order:1 ~index:1) in
  (* the arriving task may not appear among the moves… *)
  check_err "listed among the moves"
    (Allocator.check_response ~active:(fun _ -> true) alloc t0
       (response placement [ move t0 ~from_:a ~to_:b ]));
  (* …and no task may be moved twice in one response *)
  let mover = Task.make ~id:3 ~size:2 in
  check_err "moved twice"
    (Allocator.check_response ~active:(fun _ -> true) alloc t0
       (response placement
          [ move mover ~from_:a ~to_:b; move mover ~from_:b ~to_:a ]))

(* ------------------------------------------------------------------ *)
(* deliberately broken allocators (mutants) for the oracle to catch    *)

(* Piles every arrival onto the leftmost submachine of its order —
   structurally impeccable, hopelessly unbalanced. *)
let pile_allocator m : Allocator.t =
  let table = Ptable.create 16 in
  {
    Allocator.name = "mutant-pile";
    machine = m;
    assign =
      (fun task ->
        let p = Placement.direct (sub m ~order:(Task.order task) ~index:0) in
        Ptable.replace table task p;
        { Allocator.placement = p; moves = [] });
    remove = (fun id -> ignore (Ptable.remove table id));
    table;
    realloc_events = (fun () -> 0);
    export = Allocator.no_export "mutant-pile";
  }

(* Claims an order-0 home for every task, whatever its size. *)
let wrong_size_allocator m : Allocator.t =
  let table = Ptable.create 16 in
  {
    Allocator.name = "mutant-wrong-size";
    machine = m;
    assign =
      (fun task ->
        let p = Placement.direct (sub m ~order:0 ~index:0) in
        Ptable.replace table task p;
        { Allocator.placement = p; moves = [] });
    remove = (fun id -> ignore (Ptable.remove table id));
    table;
    realloc_events = (fun () -> 0);
    export = Allocator.no_export "mutant-wrong-size";
  }

(* Piles like [pile_allocator], but every fifth arrival also moves the
   lowest-id other active task to the next copy — inside its table,
   without reporting the move. Only the placement journal tells the
   accounting check that this task changed. *)
let silent_mover m : Allocator.t =
  let table = Ptable.create 16 in
  let arrivals = ref 0 in
  let lowest_id (((t : Task.t), _) as entry) acc =
    match acc with
    | Some ((u : Task.t), _) when u.Task.id < t.Task.id -> acc
    | Some _ | None -> Some entry
  in
  {
    Allocator.name = "mutant-silent-mover";
    machine = m;
    assign =
      (fun task ->
        incr arrivals;
        (if !arrivals mod 5 = 0 then
           match Ptable.fold lowest_id table None with
           | Some (victim, (p : Placement.t)) ->
               Ptable.replace table victim
                 (Placement.make ~copy:(p.Placement.copy + 1) p.Placement.sub)
           | None -> ());
        let p = Placement.direct (sub m ~order:(Task.order task) ~index:0) in
        Ptable.replace table task p;
        { Allocator.placement = p; moves = [] });
    remove = (fun id -> ignore (Ptable.remove table id));
    table;
    realloc_events = (fun () -> 0);
    export = Allocator.no_export "mutant-silent-mover";
  }

let mutant_seq ~machine_size =
  Helpers.random_sequence ~seed:1234 ~machine_size ~steps:400

let test_mutant_pile_caught_and_shrunk () =
  let m = Machine.create 8 in
  let spec = spec_for "greedy" m ~d:Realloc.Never in
  let seq = mutant_seq ~machine_size:8 in
  match Oracle.check spec ~make:(fun () -> pile_allocator m) seq with
  | Ok () -> Alcotest.fail "oracle missed the pile mutant"
  | Error cex ->
      Alcotest.(check bool)
        "violation is the load bound" true
        (cex.Oracle.final.Oracle.kind = Oracle.Load);
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to %d <= 10 events"
           (Sequence.length cex.Oracle.trace))
        true
        (Sequence.length cex.Oracle.trace <= 10);
      (* the shrunk trace must still trip the oracle on a fresh replay *)
      Alcotest.(check bool) "minimal trace still fails" true
        (Result.is_error
           (Oracle.run spec ~make:(fun () -> pile_allocator m) cex.Oracle.trace));
      (* greedy's factor on N=8 is 2, so the 1-minimal pile-up is three
         unit arrivals: load 3 > 2 * L*(=1) *)
      Alcotest.(check int) "1-minimal: exactly 3 events" 3
        (Sequence.length cex.Oracle.trace)

let test_mutant_wrong_size_caught () =
  let m = Machine.create 8 in
  let spec = Oracle.structural_only in
  let seq = mutant_seq ~machine_size:8 in
  match Oracle.check spec ~make:(fun () -> wrong_size_allocator m) seq with
  | Ok () -> Alcotest.fail "oracle missed the wrong-size mutant"
  | Error cex ->
      Alcotest.(check bool) "structural kind" true
        (cex.Oracle.final.Oracle.kind = Oracle.Structural);
      (* a single size-2 arrival is enough to expose it *)
      Alcotest.(check int) "shrunk to one event" 1
        (Sequence.length cex.Oracle.trace)

let test_mutant_budget_caught () =
  (* A_C repacks on every arrival; audited against a d = 2 budget that
     is a budget violation as soon as fewer than 2N PEs have arrived. *)
  let m = Machine.create 8 in
  let spec =
    {
      Oracle.bound = Oracle.Unbounded;
      budget = Some (Realloc.Budget 2);
      disjoint_copies = true;
    }
  in
  let seq = mutant_seq ~machine_size:8 in
  match Oracle.check spec ~make:(fun () -> Pmp_core.Optimal.create m) seq with
  | Ok () -> Alcotest.fail "oracle missed the budget violation"
  | Error cex ->
      Alcotest.(check bool) "budget kind" true
        (cex.Oracle.final.Oracle.kind = Oracle.Budget);
      Alcotest.(check int) "shrunk to one event" 1
        (Sequence.length cex.Oracle.trace)

let test_mutant_overlap_caught () =
  (* two same-order arrivals piled on one block violate the copy
     packing invariant when the spec demands disjoint copies *)
  let m = Machine.create 8 in
  let spec =
    { Oracle.bound = Oracle.Unbounded; budget = None; disjoint_copies = true }
  in
  let seq = mutant_seq ~machine_size:8 in
  match Oracle.check spec ~make:(fun () -> pile_allocator m) seq with
  | Ok () -> Alcotest.fail "oracle missed the overlap"
  | Error cex ->
      Alcotest.(check bool) "structural kind" true
        (cex.Oracle.final.Oracle.kind = Oracle.Structural);
      Alcotest.(check int) "two overlapping arrivals" 2
        (Sequence.length cex.Oracle.trace)

(* A_B holds no Theorem 3.1 claim: the oracle must catch it drifting
   above L* on the classic fragmentation pattern, and the shrinker must
   keep the load-bearing departures. *)
let test_copies_is_not_optimal () =
  let m = Machine.create 4 in
  let spec =
    { Oracle.bound = Oracle.Exact; budget = None; disjoint_copies = true }
  in
  let events =
    [
      Event.arrive (Task.make ~id:0 ~size:1);
      Event.arrive (Task.make ~id:1 ~size:1);
      Event.arrive (Task.make ~id:2 ~size:1);
      Event.arrive (Task.make ~id:3 ~size:1);
      Event.depart 1;
      Event.depart 3;
      Event.arrive (Task.make ~id:4 ~size:2);
    ]
  in
  let seq = Sequence.of_events_exn events in
  match Oracle.check spec ~make:(fun () -> Pmp_core.Copies.create m) seq with
  | Ok () -> Alcotest.fail "copies passed an Exact spec on fragmentation"
  | Error cex ->
      Alcotest.(check bool) "load kind" true
        (cex.Oracle.final.Oracle.kind = Oracle.Load);
      Alcotest.(check bool) "no larger than the original" true
        (Sequence.length cex.Oracle.trace <= 7)

let test_engine_oracle_wiring () =
  let m = Machine.create 16 in
  let seq = Helpers.random_sequence ~seed:5 ~machine_size:16 ~steps:200 in
  let spec = spec_for "greedy" m ~d:Realloc.Never in
  (* a conforming allocator sails through *)
  let r = Engine.run ~check:true ~oracle:spec (Pmp_core.Greedy.create m) seq in
  Alcotest.(check bool) "ran to completion" true (r.Engine.events = 200);
  (* the engine fails fast on a mutant, flagging the oracle *)
  Alcotest.(check bool) "mutant trips engine oracle mode" true
    (try
       ignore (Engine.run ~oracle:spec (pile_allocator m) seq);
       false
     with Invalid_argument msg -> contains ~needle:"oracle" msg)

(* ------------------------------------------------------------------ *)
(* the incremental accounting check against a full comparison          *)

(* The comparison [Mirror.check_against] answers for, restated
   independently: the same number of active tasks, then every task the
   allocator reports known to the mirror at the same home. *)
let full_comparison mirror alloc =
  let theirs = Allocator.placements alloc in
  if List.length theirs <> Mirror.num_active mirror then
    Error
      (Printf.sprintf "mirror has %d active tasks, allocator reports %d"
         (Mirror.num_active mirror) (List.length theirs))
  else
    match
      List.find_map
        (fun ((task : Task.t), p) ->
          match Mirror.placement mirror task.Task.id with
          | None ->
              Some
                (Printf.sprintf "allocator reports unknown task %d"
                   task.Task.id)
          | Some q when Placement.equal p q -> None
          | Some _ ->
              Some
                (Printf.sprintf "task %d: mirror and allocator disagree"
                   task.Task.id))
        theirs
    with
    | None -> Ok ()
    | Some e -> Error e

(* Drive [alloc] and a mirror over [seq], checking after every event.
   Returns the first event at which the incremental check and the full
   comparison disagree (if any), the first event the full comparison
   rejects with its message, and whether some event wrote more
   placements than the journal holds. *)
let audit_trail (alloc : Allocator.t) seq =
  let mirror = Mirror.create alloc.Allocator.machine in
  let divergence = ref None and first_error = ref None in
  let overflowed = ref false in
  List.iteri
    (fun i (ev : Event.t) ->
      let before = Ptable.writes alloc.Allocator.table in
      (match ev with
      | Arrive task ->
          Mirror.apply_assign mirror task (alloc.Allocator.assign task)
      | Depart id ->
          alloc.Allocator.remove id;
          Mirror.apply_remove mirror id);
      let written = Ptable.writes alloc.Allocator.table - before in
      if written > Ptable.journal_size then overflowed := true;
      let incremental = Mirror.check_against mirror alloc in
      let full = full_comparison mirror alloc in
      if incremental <> full && !divergence = None then divergence := Some i;
      match full with
      | Error msg when !first_error = None -> first_error := Some (i, msg)
      | Ok () | Error _ -> ())
    (Sequence.to_list seq);
  (!divergence, !first_error, !overflowed)

let prop_incremental_check_is_full =
  QCheck.Test.make
    ~name:"differential: incremental accounting check = full comparison"
    ~count:40
    (Helpers.seq_params ~max_levels:7 ~max_steps:300 ())
    (fun (levels, seed, steps) ->
      Helpers.with_seed ~label:"incremental-check" seed (fun _g ->
          let m = Machine.of_levels levels in
          let d = Realloc.Budget 1 in
          let seq =
            Helpers.random_sequence ~seed ~machine_size:(Machine.size m) ~steps
          in
          List.for_all
            (fun (name, make) ->
              match audit_trail (make ()) seq with
              | None, _, _ -> true
              | Some i, _, _ ->
                  Printf.eprintf
                    "[incremental-check] %s diverges at event %d\n%!" name i;
                  false)
            (("mutant-silent-mover", fun () -> silent_mover m)
            :: List.map
                 (fun name -> (name, make_for name m ~d ~seed))
                 Builders.allocator_names)))

(* A_C rewrites every active task on each arrival; once more than a
   journal's worth are active the check must fall back to the full
   comparison rather than trust a ring that lost writes. *)
let test_incremental_check_overflow () =
  let m = Machine.create 256 in
  let seq =
    Sequence.of_events_exn
      (List.init 100 (fun id -> Event.arrive (Task.make ~id ~size:1))
      @ List.init 50 (fun i -> Event.depart (2 * i)))
  in
  let divergence, first_error, overflowed =
    audit_trail (Pmp_core.Optimal.create m) seq
  in
  Alcotest.(check bool) "some event overflowed the journal" true overflowed;
  Alcotest.(check (option int))
    "incremental = full at every event" None divergence;
  Alcotest.(check bool) "A_C is consistent" true (first_error = None)

let test_silent_mover_caught () =
  let m = Machine.create 8 in
  let seq = mutant_seq ~machine_size:8 in
  let divergence, expected, _ = audit_trail (silent_mover m) seq in
  Alcotest.(check (option int))
    "incremental = full at every event" None divergence;
  let make () = silent_mover m in
  match (expected, Oracle.run Oracle.structural_only ~make seq) with
  | None, _ -> Alcotest.fail "the sequence never exposes a silent move"
  | Some _, Ok () -> Alcotest.fail "oracle missed the silent mover"
  | Some (step, message), Error v ->
      Alcotest.(check bool) "accounting kind" true
        (v.Oracle.kind = Oracle.Accounting);
      Alcotest.(check int) "same step as a full comparison" step v.Oracle.step;
      Alcotest.(check string) "same message as a full comparison" message
        v.Oracle.message

(* ------------------------------------------------------------------ *)
(* the shrinker on its own                                             *)

let test_shrink_no_failure_is_identity () =
  let seq = Helpers.random_sequence ~seed:3 ~machine_size:8 ~steps:50 in
  let out = Shrink.minimize ~fails:(fun _ -> false) seq in
  Alcotest.(check int) "unchanged" (Sequence.length seq) (Sequence.length out)

let test_shrink_to_cardinality () =
  let seq = Helpers.random_sequence ~seed:3 ~machine_size:8 ~steps:80 in
  let fails s = Sequence.length s >= 5 in
  let out = Shrink.minimize ~fails seq in
  Alcotest.(check int) "exactly the threshold" 5 (Sequence.length out)

let test_shrink_halves_sizes () =
  let seq =
    Sequence.of_events_exn [ Event.arrive (Task.make ~id:0 ~size:64) ]
  in
  (* failure only needs size >= 4: the shrinker should land exactly there *)
  let fails s = Sequence.peak_active_size s >= 4 in
  let out = Shrink.minimize ~fails seq in
  Alcotest.(check int) "size shrunk to 4" 4 (Sequence.peak_active_size out)

(* ------------------------------------------------------------------ *)
(* property sweeps                                                     *)

(* The acceptance sweep: A_C, A_G and A_M (d in {0,1,2,4}) at
   N in {4, 16, 64, 256, 1024} on >= 500 random sequences, audited
   step-by-step against their theorem envelopes. *)
let theorem_configs m =
  let name_d = [ ("optimal", Realloc.Every); ("greedy", Realloc.Never) ] in
  let am =
    List.map (fun d -> ("periodic", Realloc.make_budget d)) [ 0; 1; 2; 4 ]
  in
  List.map
    (fun (name, d) -> (name, d, spec_for name m ~d))
    (name_d @ am)

let sweep_params =
  QCheck.make
    ~print:(fun (levels, seed, steps) ->
      Printf.sprintf "N=%d seed=%d steps=%d" (1 lsl levels) seed steps)
    QCheck.Gen.(
      triple
        (oneofl [ 2; 4; 6; 8; 10 ])
        (int_range 0 1_000_000) (int_range 1 60))

let prop_theorem_sweep =
  QCheck.Test.make ~name:"oracle: A_C/A_G/A_M hold their bounds at N up to 1024"
    ~count:500 sweep_params
    (fun (levels, seed, steps) ->
      Helpers.with_seed ~label:"oracle-sweep" seed (fun _g ->
          let m = Machine.of_levels levels in
          let n = Machine.size m in
          let seq = Helpers.random_sequence ~seed ~machine_size:n ~steps in
          List.for_all
            (fun (name, d, spec) ->
              match
                Oracle.run spec ~make:(make_for name m ~d ~seed) seq
              with
              | Ok () -> true
              | Error v ->
                  Printf.eprintf "[oracle-sweep] %s (N=%d): %s\n%!" name n
                    (Format.asprintf "%a" Oracle.pp_violation v);
                  false)
            (theorem_configs m)))

(* Every registered allocator, including baselines and ablations, must
   at least satisfy its structural/budget/packing spec. *)
let prop_all_allocators_conform =
  QCheck.Test.make ~name:"oracle: every registered allocator meets its spec"
    ~count:120
    (Helpers.seq_params ~max_levels:5 ~max_steps:120 ())
    (fun (levels, seed, steps) ->
      Helpers.with_seed ~label:"allocator-sweep" seed (fun _g ->
          let m = Machine.of_levels levels in
          let n = Machine.size m in
          let d = Realloc.Budget 2 in
          let seq = Helpers.random_sequence ~seed ~machine_size:n ~steps in
          List.for_all
            (fun name ->
              let spec = spec_for name m ~d in
              match Oracle.run spec ~make:(make_for name m ~d ~seed) seq with
              | Ok () -> true
              | Error v ->
                  Printf.eprintf "[allocator-sweep] %s: %s\n%!" name
                    (Format.asprintf "%a" Oracle.pp_violation v);
                  false)
            Builders.allocator_names))

(* Differential: after any sequence, every allocator's placements
   reports exactly the multiset of active task ids, each at its task's
   size. *)
let prop_placements_match_active_set =
  QCheck.Test.make
    ~name:"differential: placements () = active set for every allocator"
    ~count:120
    (Helpers.seq_params ~max_levels:5 ~max_steps:120 ())
    (fun (levels, seed, steps) ->
      Helpers.with_seed ~label:"differential" seed (fun _g ->
          let m = Machine.of_levels levels in
          let n = Machine.size m in
          let d = Realloc.Budget 1 in
          let seq = Helpers.random_sequence ~seed ~machine_size:n ~steps in
          let expected =
            let tbl = Hashtbl.create 32 in
            List.iter
              (fun (ev : Event.t) ->
                match ev with
                | Arrive task -> Hashtbl.replace tbl task.Task.id task.Task.size
                | Depart id -> Hashtbl.remove tbl id)
              (Sequence.to_list seq);
            List.sort compare
              (Hashtbl.fold (fun id size acc -> (id, size) :: acc) tbl [])
          in
          List.for_all
            (fun name ->
              let alloc = make_for name m ~d ~seed () in
              List.iter
                (fun (ev : Event.t) ->
                  match ev with
                  | Arrive task -> ignore (alloc.Allocator.assign task)
                  | Depart id -> alloc.Allocator.remove id)
                (Sequence.to_list seq);
              let got =
                List.sort compare
                  (List.map
                     (fun ((t : Task.t), _) -> (t.Task.id, t.Task.size))
                     (Allocator.placements alloc))
              in
              if got = expected then true
              else begin
                Printf.eprintf
                  "[differential] %s reports %d active, expected %d\n%!" name
                  (List.length got) (List.length expected);
                false
              end)
            Builders.allocator_names))

(* T3.1 differential: A_C's measured peak equals L* exactly. *)
let prop_optimal_hits_lstar =
  QCheck.Test.make ~name:"differential: A_C max load = L* exactly" ~count:200
    (Helpers.seq_params ~max_levels:6 ~max_steps:200 ())
    (fun (levels, seed, steps) ->
      Helpers.with_seed ~label:"A_C=L*" seed (fun _g ->
          let m = Machine.of_levels levels in
          let n = Machine.size m in
          let seq = Helpers.random_sequence ~seed ~machine_size:n ~steps in
          let r = Helpers.run_checked (Pmp_core.Optimal.create m) seq in
          r.Engine.max_load = r.Engine.optimal_load))

let suite =
  [
    Alcotest.test_case "reject move outside machine" `Quick
      test_reject_move_outside_machine;
    Alcotest.test_case "reject move of inactive task" `Quick
      test_reject_move_of_inactive_task;
    Alcotest.test_case "reject degenerate moves" `Quick
      test_reject_degenerate_moves;
    Alcotest.test_case "pile mutant caught + shrunk" `Quick
      test_mutant_pile_caught_and_shrunk;
    Alcotest.test_case "wrong-size mutant caught" `Quick
      test_mutant_wrong_size_caught;
    Alcotest.test_case "budget mutant caught" `Quick test_mutant_budget_caught;
    Alcotest.test_case "overlap mutant caught" `Quick test_mutant_overlap_caught;
    Alcotest.test_case "copies is not optimal" `Quick test_copies_is_not_optimal;
    Alcotest.test_case "engine --check=oracle wiring" `Quick
      test_engine_oracle_wiring;
    Alcotest.test_case "silent mover caught like a full comparison" `Quick
      test_silent_mover_caught;
    Alcotest.test_case "incremental check: journal overflow" `Quick
      test_incremental_check_overflow;
    Alcotest.test_case "shrink: no failure = identity" `Quick
      test_shrink_no_failure_is_identity;
    Alcotest.test_case "shrink: to cardinality" `Quick test_shrink_to_cardinality;
    Alcotest.test_case "shrink: halves sizes" `Quick test_shrink_halves_sizes;
  ]
  @ Helpers.qtests
      [
        prop_theorem_sweep;
        prop_all_allocators_conform;
        prop_placements_match_active_set;
        prop_incremental_check_is_full;
        prop_optimal_hits_lstar;
      ]
