module Cluster = Pmp_cluster.Cluster
module Sm = Pmp_prng.Splitmix64

let make ?(cap = None) ?(policy = Cluster.Greedy) n =
  match Cluster.create ~machine_size:n ~policy ~admission_cap:cap () with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let submit_placed t size =
  match Cluster.submit t ~size with
  | Ok (Cluster.Placed (id, p)) -> (id, p)
  | Ok (Cluster.Queued _) -> Alcotest.fail "unexpectedly queued"
  | Error e -> Alcotest.fail e

let test_create_validation () =
  Alcotest.(check bool) "bad size" true
    (Result.is_error
       (Cluster.create ~machine_size:12 ~policy:Cluster.Greedy ()));
  Alcotest.(check bool) "bad cap" true
    (Result.is_error
       (Cluster.create ~machine_size:16 ~policy:Cluster.Greedy
          ~admission_cap:(Some 0.0) ()))

let test_basic_lifecycle () =
  let t = make 16 in
  let id0, p0 = submit_placed t 4 in
  Alcotest.(check int) "sized placement" 4
    (Pmp_machine.Submachine.size p0.Pmp_core.Placement.sub);
  let s = Cluster.stats t in
  Alcotest.(check int) "one active" 1 s.Cluster.active_now;
  Alcotest.(check int) "active size" 4 s.Cluster.active_size;
  Alcotest.(check int) "load 1" 1 s.Cluster.max_load;
  Alcotest.(check bool) "finish ok" true (Result.is_ok (Cluster.finish t id0));
  let s = Cluster.stats t in
  Alcotest.(check int) "drained" 0 s.Cluster.active_now;
  Alcotest.(check int) "completed" 1 s.Cluster.completed;
  Alcotest.(check int) "peak remembered" 1 s.Cluster.peak_load;
  Alcotest.(check bool) "double finish rejected" true
    (Result.is_error (Cluster.finish t id0))

let test_submit_validation () =
  let t = make 16 in
  Alcotest.(check bool) "non-pow2" true (Result.is_error (Cluster.submit t ~size:3));
  Alcotest.(check bool) "too big" true (Result.is_error (Cluster.submit t ~size:32))

let test_oversubscription_without_cap () =
  (* the paper's real-time model: everything is placed immediately *)
  let t = make 4 in
  for _ = 1 to 10 do
    ignore (submit_placed t 4)
  done;
  let s = Cluster.stats t in
  Alcotest.(check int) "all active" 10 s.Cluster.active_now;
  Alcotest.(check int) "load 10" 10 s.Cluster.max_load;
  Alcotest.(check int) "optimal 10" 10 s.Cluster.optimal_now

let test_admission_queue () =
  let t = make ~cap:(Some 1.0) 4 in
  let id0, _ = submit_placed t 4 in
  let id1 =
    match Cluster.submit t ~size:2 with
    | Ok (Cluster.Queued id) -> id
    | Ok (Cluster.Placed _) -> Alcotest.fail "should queue"
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "queued" true (Cluster.is_queued t id1);
  Alcotest.(check bool) "no placement yet" true (Cluster.placement t id1 = None);
  Alcotest.(check bool) "finish admits" true (Result.is_ok (Cluster.finish t id0));
  Alcotest.(check bool) "now placed" true (Cluster.placement t id1 <> None);
  Alcotest.(check bool) "not queued anymore" false (Cluster.is_queued t id1);
  let s = Cluster.stats t in
  Alcotest.(check int) "queue empty" 0 s.Cluster.queued_now

let test_cancel_queued () =
  let t = make ~cap:(Some 1.0) 4 in
  let id0, _ = submit_placed t 4 in
  let id1 =
    match Cluster.submit t ~size:4 with
    | Ok (Cluster.Queued id) -> id
    | _ -> Alcotest.fail "should queue"
  in
  Alcotest.(check bool) "cancel ok" true (Result.is_ok (Cluster.finish t id1));
  Alcotest.(check bool) "finish head" true (Result.is_ok (Cluster.finish t id0));
  let s = Cluster.stats t in
  Alcotest.(check int) "nothing active" 0 s.Cluster.active_now;
  Alcotest.(check int) "both completed" 2 s.Cluster.completed

(* Cancelling a queued task costs O(1) however deep the queue: one
   cancellation allocates the same words behind 100 queued tasks as
   behind 10,000. Copying the queue per cancellation allocates O(depth)
   words and fails this. *)
let test_cancel_cost_independent_of_depth () =
  let words_to_cancel depth =
    let t = make ~cap:(Some 1.0) 1024 in
    ignore (submit_placed t 1024);
    let ids =
      Array.init depth (fun _ ->
          match Cluster.submit t ~size:1 with
          | Ok (Cluster.Queued id) -> id
          | _ -> Alcotest.fail "should queue")
    in
    let victim = ids.(depth / 2) in
    let w0 = Gc.minor_words () in
    let r = Cluster.finish t victim in
    let w = Gc.minor_words () -. w0 in
    Alcotest.(check bool) "cancelled" true (Result.is_ok r);
    Alcotest.(check int) "one fewer queued" (depth - 1)
      (Cluster.stats t).Cluster.queued_now;
    w
  in
  let shallow = words_to_cancel 100 in
  let deep = words_to_cancel 10_000 in
  Alcotest.(check (float 0.0)) "same words at depth 100 and 10,000" shallow deep

(* Cancellations leave the survivors in FIFO order — in [queued_tasks],
   in the export and in the order they are admitted — also once the
   cancelled outnumber the live and the queue is compacted. *)
let test_cancel_keeps_fifo () =
  let t = make ~cap:(Some 1.0) 16 in
  let head, _ = submit_placed t 16 in
  let queued =
    List.init 10 (fun _ ->
        match Cluster.submit t ~size:4 with
        | Ok (Cluster.Queued id) -> id
        | _ -> Alcotest.fail "should queue")
  in
  let cancelled = List.filteri (fun i _ -> i mod 2 = 0 || i = 9) queued in
  let survivors = List.filter (fun id -> not (List.mem id cancelled)) queued in
  List.iter
    (fun id ->
      Alcotest.(check bool) "cancel ok" true (Result.is_ok (Cluster.finish t id)))
    cancelled;
  let expect = List.map (fun id -> (id, 4)) survivors in
  Alcotest.(check (list (pair int int))) "queued_tasks" expect
    (Cluster.queued_tasks t);
  Alcotest.(check (list (pair int int))) "export" expect
    (Cluster.export t).Cluster.queued;
  Alcotest.(check int) "queued_now" 4 (Cluster.stats t).Cluster.queued_now;
  Alcotest.(check bool) "finish head" true (Result.is_ok (Cluster.finish t head));
  (* four size-4 tasks fill the machine, in submission order *)
  Alcotest.(check (list int)) "admitted in FIFO order" [ 0; 1; 2; 3 ]
    (List.map
       (fun id ->
         match Cluster.placement t id with
         | Some p -> p.Pmp_core.Placement.sub.Pmp_machine.Submachine.index
         | None -> Alcotest.failf "task %d not admitted" id)
       survivors);
  Alcotest.(check int) "queue empty" 0 (Cluster.stats t).Cluster.queued_now

let test_size_exceeding_cap_rejected () =
  let t = make ~cap:(Some 0.5) 16 in
  Alcotest.(check bool) "cannot ever fit" true
    (Result.is_error (Cluster.submit t ~size:16))

let every_policy =
  [
    Cluster.Greedy;
    Cluster.Copies;
    Cluster.Optimal;
    Cluster.Periodic (Pmp_core.Realloc.Budget 1);
    Cluster.Periodic (Pmp_core.Realloc.Budget 2);
    Cluster.Hybrid (Pmp_core.Realloc.Budget 1);
    Cluster.Randomized 7;
  ]

let test_policies_smoke () =
  List.iter
    (fun policy ->
      let t = make ~policy 16 in
      let ids = List.init 6 (fun _ -> fst (submit_placed t 4)) in
      List.iter (fun id -> Alcotest.(check bool) "finish" true
        (Result.is_ok (Cluster.finish t id))) ids;
      Alcotest.(check int)
        (Cluster.policy_name policy ^ " drains")
        0 (Cluster.stats t).Cluster.active_now)
    every_policy

let test_migration_accounting () =
  let t = make ~policy:Cluster.Optimal 4 in
  let ids = List.init 4 (fun _ -> fst (submit_placed t 1)) in
  (match ids with
  | [ _; b; _; d ] ->
      ignore (Cluster.finish t b);
      ignore (Cluster.finish t d)
  | _ -> Alcotest.fail "expected four ids");
  ignore (submit_placed t 2);
  let s = Cluster.stats t in
  Alcotest.(check bool) "migrations counted" true (s.Cluster.tasks_migrated > 0);
  Alcotest.(check bool) "reallocs counted" true (s.Cluster.reallocations > 0);
  Alcotest.(check int) "stayed optimal" 1 s.Cluster.max_load

(* Import refuses a state whose allocator half is malformed, naming
   the cause: a placement that is not its task's size, and ids that
   are not distinct. *)
let test_import_refusals () =
  let t = make 16 in
  ignore (submit_placed t 4);
  ignore (submit_placed t 2);
  let st = Cluster.export t in
  let alloc = st.Cluster.alloc in
  let refused ~cause tasks =
    let bad =
      { st with Cluster.alloc = { alloc with Pmp_core.Allocator.tasks } }
    in
    match Cluster.import ~machine_size:16 ~policy:Cluster.Greedy bad with
    | Ok _ -> Alcotest.failf "import accepted %s" cause
    | Error e -> Alcotest.(check string) cause cause e
  in
  (match alloc.Pmp_core.Allocator.tasks with
  | [ a; (task_b, _) ] ->
      refused ~cause:"task 1 of size 2 is placed on a submachine of size 4"
        [ a; (task_b, Pmp_core.Placement.direct { Pmp_machine.Submachine.order = 2; index = 1 }) ];
      refused ~cause:"task ids are not distinct and ascending (0 after 0)" [ a; a ]
  | _ -> Alcotest.fail "expected two live tasks");
  match Cluster.import ~machine_size:16 ~policy:Cluster.Greedy st with
  | Ok t' ->
      Alcotest.(check bool) "the unaltered state imports" true
        (Cluster.export t' = st)
  | Error e -> Alcotest.fail e

(* Places like greedy, but every response after the first also reports
   the first task moved to a PE its table never puts it on. *)
let false_mover m : Pmp_core.Allocator.t =
  let inner = Pmp_core.Greedy.create m in
  let first = ref None in
  {
    inner with
    Pmp_core.Allocator.name = "mutant-false-mover";
    assign =
      (fun task ->
        let resp = inner.Pmp_core.Allocator.assign task in
        match !first with
        | None ->
            first := Some (task, resp.Pmp_core.Allocator.placement);
            resp
        | Some (t0, from_) ->
            let to_ =
              Pmp_core.Placement.direct
                (Pmp_machine.Submachine.make m ~order:0
                   ~index:(Pmp_machine.Machine.size m - 1))
            in
            { resp with moves = [ { Pmp_core.Allocator.task = t0; from_; to_ } ] });
  }

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* The cluster's own checks of an allocator decision: a reported move
   must end where the allocator's table holds the task, and an arriving
   id must be new. *)
let test_checked_assign_refusals () =
  let m = Pmp_machine.Machine.create 8 in
  let task id = Pmp_workload.Task.make ~id ~size:1 in
  let mutant = false_mover m in
  ignore (Cluster.checked_assign mutant (task 0));
  Alcotest.(check bool) "a move the table does not hold is refused" true
    (raises_invalid (fun () -> Cluster.checked_assign mutant (task 1)));
  let honest = Pmp_core.Greedy.create m in
  ignore (Cluster.checked_assign honest (task 0));
  Alcotest.(check bool) "an id already placed is refused" true
    (raises_invalid (fun () -> Cluster.checked_assign honest (task 0)));
  Alcotest.(check bool) "a fresh id is placed" false
    (raises_invalid (fun () -> Cluster.checked_assign honest (task 1)))

(* The loads, counts and active size a cluster should report, recounted
   directly from the placements of the live ids. *)
let recount t ~n live =
  let leaves = Array.make n 0 and placed = ref 0 and size = ref 0 in
  List.iter
    (fun id ->
      match Cluster.placement t id with
      | None -> ()
      | Some (p : Pmp_core.Placement.t) ->
          let sub = p.Pmp_core.Placement.sub in
          incr placed;
          size := !size + Pmp_machine.Submachine.size sub;
          for leaf = Pmp_machine.Submachine.first_leaf sub
              to Pmp_machine.Submachine.last_leaf sub do
            leaves.(leaf) <- leaves.(leaf) + 1
          done)
    live;
  (leaves, !placed, !size)

(* Random submits, finishes and cancellations under every policy, with
   and without an admission cap: after each one the counters balance,
   and the leaf loads, max load, active size and active count equal a
   recount over the placements of the live ids. *)
let prop_driver_consistency =
  QCheck.Test.make ~name:"cluster: stats stay consistent under random driving"
    ~count:40
    QCheck.(triple (int_range 1 5) (int_range 0 100_000) (int_range 1 200))
    (fun (levels, seed, steps) ->
      let n = 1 lsl levels in
      let run cap policy =
        let t = make ~cap ~policy n in
        let g = Sm.create seed in
        let live = ref [] in
        let ok = ref true in
        for _ = 1 to steps do
          (if !live = [] || Sm.bool g then begin
             match Cluster.submit t ~size:(1 lsl Sm.int g (levels + 1)) with
             | Ok (Cluster.Placed (id, _)) | Ok (Cluster.Queued id) ->
                 live := id :: !live
             | Error _ -> ok := false
           end
           else begin
             (* any live id: a placed one finishes, a queued one cancels *)
             let id = List.nth !live (Sm.int g (List.length !live)) in
             if Result.is_error (Cluster.finish t id) then ok := false;
             live := List.filter (( <> ) id) !live
           end);
          let s = Cluster.stats t in
          if
            s.Cluster.submitted - s.Cluster.completed
            <> s.Cluster.active_now + s.Cluster.queued_now
            || s.Cluster.max_load > s.Cluster.peak_load
            || (cap <> None && s.Cluster.active_size > 2 * n)
          then ok := false;
          let leaves, placed, size = recount t ~n !live in
          if
            Cluster.leaf_loads t <> leaves
            || s.Cluster.max_load <> Array.fold_left max 0 leaves
            || s.Cluster.active_size <> size
            || s.Cluster.active_now <> placed
          then ok := false
        done;
        !ok
      in
      List.for_all
        (fun cap -> List.for_all (run cap) every_policy)
        [ None; Some 2.0 ])

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "basic lifecycle" `Quick test_basic_lifecycle;
    Alcotest.test_case "submit validation" `Quick test_submit_validation;
    Alcotest.test_case "real-time oversubscription" `Quick
      test_oversubscription_without_cap;
    Alcotest.test_case "admission queue" `Quick test_admission_queue;
    Alcotest.test_case "cancel queued" `Quick test_cancel_queued;
    Alcotest.test_case "cancel cost independent of queue depth" `Quick
      test_cancel_cost_independent_of_depth;
    Alcotest.test_case "cancel keeps FIFO order" `Quick test_cancel_keeps_fifo;
    Alcotest.test_case "checked assign refusals" `Quick
      test_checked_assign_refusals;
    Alcotest.test_case "impossible size" `Quick test_size_exceeding_cap_rejected;
    Alcotest.test_case "all policies" `Quick test_policies_smoke;
    Alcotest.test_case "migration accounting" `Quick test_migration_accounting;
    Alcotest.test_case "import refusals" `Quick test_import_refusals;
  ]
  @ Helpers.qtests [ prop_driver_consistency ]
