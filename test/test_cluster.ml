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

let test_size_exceeding_cap_rejected () =
  let t = make ~cap:(Some 0.5) 16 in
  Alcotest.(check bool) "cannot ever fit" true
    (Result.is_error (Cluster.submit t ~size:16))

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
    [
      Cluster.Greedy; Cluster.Copies; Cluster.Optimal;
      Cluster.Periodic (Pmp_core.Realloc.Budget 1);
      Cluster.Hybrid (Pmp_core.Realloc.Budget 1);
      Cluster.Randomized 7;
    ]

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

(* Random driver: the cluster's accounting must match a naive replay. *)
let prop_driver_consistency =
  QCheck.Test.make ~name:"cluster: stats stay consistent under random driving"
    ~count:80
    QCheck.(triple (int_range 1 5) (int_range 0 100_000) (int_range 1 200))
    (fun (levels, seed, steps) ->
      let n = 1 lsl levels in
      let t = make ~cap:(Some 2.0) n in
      let g = Sm.create seed in
      let live = ref [] in
      let ok = ref true in
      for _ = 1 to steps do
        if !live = [] || Sm.bool g then begin
          let size = 1 lsl Sm.int g (levels + 1) in
          match Cluster.submit t ~size with
          | Ok (Cluster.Placed (id, _)) | Ok (Cluster.Queued id) ->
              live := id :: !live
          | Error _ -> ok := false
        end
        else begin
          match !live with
          | id :: rest ->
              if Result.is_error (Cluster.finish t id) then ok := false;
              live := rest
          | [] -> ()
        end;
        let s = Cluster.stats t in
        (* conservation and basic sanity at every step *)
        if s.Cluster.submitted - s.Cluster.completed
           <> s.Cluster.active_now + s.Cluster.queued_now
        then ok := false;
        if s.Cluster.active_size > 2 * n then ok := false;
        if s.Cluster.max_load > s.Cluster.peak_load then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "basic lifecycle" `Quick test_basic_lifecycle;
    Alcotest.test_case "submit validation" `Quick test_submit_validation;
    Alcotest.test_case "real-time oversubscription" `Quick
      test_oversubscription_without_cap;
    Alcotest.test_case "admission queue" `Quick test_admission_queue;
    Alcotest.test_case "cancel queued" `Quick test_cancel_queued;
    Alcotest.test_case "impossible size" `Quick test_size_exceeding_cap_rejected;
    Alcotest.test_case "all policies" `Quick test_policies_smoke;
    Alcotest.test_case "migration accounting" `Quick test_migration_accounting;
    Alcotest.test_case "import refusals" `Quick test_import_refusals;
  ]
  @ Helpers.qtests [ prop_driver_consistency ]
