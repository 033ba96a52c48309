(* The federation layer: id arithmetic, the second-level summaries
   and their pick, the budgeted rebalance planner, the routing core,
   routing-replay equivalence on the deterministic sim, the live router
   matched against the sim decision for decision, and live multi-shard
   sessions over real sockets — including the headline failover
   property: crash one shard mid-stream and no acknowledged task is
   lost. *)

module Sm = Pmp_prng.Splitmix64
module Cluster = Pmp_cluster.Cluster
module Protocol = Pmp_server.Protocol
module Server = Pmp_server.Server
module Client = Pmp_server.Client
module Fed_index = Pmp_federation.Fed_index
module Rebalance = Pmp_federation.Rebalance
module Route = Pmp_federation.Route
module Sim = Pmp_federation.Sim
module Router = Pmp_federation.Router

let get_ok ~ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx e

(* --- temp state directories --------------------------------------- *)

let temp_count = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let with_dir f =
  incr temp_count;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmpd-fed-test-%d-%d" (Unix.getpid ()) !temp_count)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- federated id arithmetic -------------------------------------- *)

(* A federation mints and routes its ids with the shared interleaving,
   over whole machines whose count need not be a power of two: every
   (shard, local) pair at 1 to 8 shards must come back from its id. *)
let prop_fed_id_bijection =
  QCheck.Test.make ~name:"federation: id scheme is a bijection" ~count:500
    QCheck.(triple (int_range 1 8) (int_bound 7) (int_bound 100_000))
    (fun (shards, shard, local) ->
      let shard = shard mod shards in
      let g = Pmp_util.Sharding.global_id ~shards ~shard local in
      Pmp_util.Sharding.owner ~shards g = shard
      && Pmp_util.Sharding.local_id ~shards g = local
      && g >= 0)

(* --- the second-level index --------------------------------------- *)

let test_fed_index_pick () =
  let t =
    Fed_index.create ~shard_sizes:[| 8; 8; 8 |] ~capacities:(Array.make 3 None)
  in
  Alcotest.(check (option int)) "all idle -> leftmost" (Some 0)
    (Fed_index.pick t ~size:4);
  Fed_index.note_submit t 0 ~size:8;
  Alcotest.(check int) "optimistic estimate raises the summary" 1
    (Fed_index.load t 0);
  Alcotest.(check (option int)) "skips the loaded shard" (Some 1)
    (Fed_index.pick t ~size:4);
  Fed_index.set_up t 1 false;
  Alcotest.(check (option int)) "down shards are never picked" (Some 2)
    (Fed_index.pick t ~size:4);
  Fed_index.observe t 0 ~max_load:0 ~active_size:0;
  Alcotest.(check (option int)) "a poll snaps the estimate back" (Some 0)
    (Fed_index.pick t ~size:4);
  Alcotest.(check (option int)) "no shard fits an oversized task" None
    (Fed_index.pick t ~size:16);
  Fed_index.set_up t 0 false;
  Fed_index.set_up t 2 false;
  Alcotest.(check (option int)) "every shard down" None
    (Fed_index.pick t ~size:1);
  Fed_index.set_up t 1 true;
  Alcotest.(check (option int)) "recovery restores the leaf" (Some 1)
    (Fed_index.pick t ~size:1)

let test_fed_index_headroom () =
  (* equal loads: the capped-out shard loses to one with headroom *)
  let t =
    Fed_index.create ~shard_sizes:[| 8; 8 |]
      ~capacities:[| Some 8; Some 64 |]
  in
  Fed_index.note_submit t 0 ~size:8;
  Fed_index.note_submit t 1 ~size:8;
  Alcotest.(check int) "loads tie" (Fed_index.load t 0) (Fed_index.load t 1);
  Alcotest.(check (option int)) "headroom breaks the tie" (Some 1)
    (Fed_index.pick t ~size:2);
  (* nobody has headroom: fall back to the leftmost min that fits *)
  let t =
    Fed_index.create ~shard_sizes:[| 8; 8 |] ~capacities:[| Some 2; Some 2 |]
  in
  Fed_index.note_submit t 0 ~size:2;
  Fed_index.note_submit t 1 ~size:2;
  Alcotest.(check (option int)) "queueing fallback is still leftmost min"
    (Some 0)
    (Fed_index.pick t ~size:4)

let prop_fed_index_leftmost_min =
  QCheck.Test.make ~name:"federation: pick is the leftmost up minimum"
    ~count:300
    QCheck.(pair (int_range 1 6) (int_range 0 1_000_000))
    (fun (m, seed) ->
      Helpers.with_seed ~label:"fed-index-pick" seed (fun g ->
          let t =
            Fed_index.create ~shard_sizes:(Array.make m 8)
              ~capacities:(Array.make m None)
          in
          for sx = 0 to m - 1 do
            Fed_index.observe t sx ~max_load:(Sm.int g 6) ~active_size:0;
            if Sm.int g 4 = 0 then Fed_index.set_up t sx false
          done;
          let ups = List.filter (Fed_index.up t) (List.init m Fun.id) in
          match Fed_index.pick t ~size:1 with
          | None -> ups = []
          | Some sx ->
              Fed_index.up t sx
              && List.for_all
                   (fun j ->
                     Fed_index.load t j > Fed_index.load t sx
                     || (Fed_index.load t j = Fed_index.load t sx && j >= sx))
                   ups))

(* --- the rebalance planner ---------------------------------------- *)

let prop_rebalance_plan =
  QCheck.Test.make
    ~name:"federation: rebalance moves respect budgets and direction"
    ~count:300
    QCheck.(pair (int_range 2 5) (int_range 0 1_000_000))
    (fun (m, seed) ->
      Helpers.with_seed ~label:"rebalance-plan" seed (fun g ->
          let loads = Array.init m (fun _ -> Sm.int g 12) in
          let up = Array.init m (fun _ -> Sm.int g 5 > 0) in
          let shard_sizes = Array.make m 8 in
          let gid = ref 0 in
          let tasks_by_shard =
            Array.init m (fun _ ->
                List.init (Sm.int g 6) (fun _ ->
                    incr gid;
                    {
                      Rebalance.gid = !gid;
                      size = 1 lsl Sm.int g 5;
                      queued = Sm.bool g;
                    }))
          in
          let config =
            {
              Rebalance.threshold = Sm.int g 3;
              max_tasks = 1 + Sm.int g 4;
              max_bytes = (1 + Sm.int g 8) * 4096;
              bytes_per_pe = 4096;
            }
          in
          let moves =
            Rebalance.plan config ~loads ~up ~shard_sizes ~tasks:(fun sx ->
                tasks_by_shard.(sx))
          in
          let ups = List.filter (fun i -> up.(i)) (List.init m Fun.id) in
          let max_up = List.fold_left (fun a i -> max a loads.(i)) min_int ups
          and min_up =
            List.fold_left (fun a i -> min a loads.(i)) max_int ups
          in
          List.length moves <= config.max_tasks
          && List.fold_left
               (fun acc mv -> acc + Rebalance.move_bytes config mv)
               0 moves
             <= config.max_bytes
          && List.for_all
               (fun (mv : Rebalance.move) ->
                 mv.src <> mv.dst
                 && up.(mv.src) && up.(mv.dst)
                 && loads.(mv.src) = max_up
                 && loads.(mv.dst) = min_up
                 && mv.task.Rebalance.size <= shard_sizes.(mv.dst)
                 && List.mem mv.task tasks_by_shard.(mv.src))
               moves
          &&
          match ups with
          | [] | [ _ ] -> moves = []
          | _ -> if max_up - min_up <= config.threshold then moves = [] else true))

(* --- routing-replay equivalence ----------------------------------- *)

(* Partition a federated run by its recorded routing decisions and
   replay each shard's slice through an independent cluster: the final
   per-shard stats must be reproduced exactly. This is the property
   that pins the router to "M independent pmpds plus a pure routing
   function" — no hidden cross-shard state. *)
let replay_matches ~shards ~machine_size ~ops (r : Sim.result) =
  let clusters =
    Array.init shards (fun _ ->
        Result.get_ok
          (Cluster.create ~machine_size ~policy:Cluster.Greedy
             ~admission_cap:None ()))
  in
  (* mirror of the sim's ack bookkeeping, newest first *)
  let acked = ref [] and n_acked = ref 0 in
  List.iteri
    (fun i op ->
      match (op, r.Sim.decisions.(i)) with
      | Sim.Submit { size; _ }, Sim.Routed sx -> (
          match Cluster.submit clusters.(sx) ~size with
          | Ok (Cluster.Placed (local, _)) | Ok (Cluster.Queued local) ->
              acked := (sx, local) :: !acked;
              incr n_acked
          | Error e -> Alcotest.failf "replay submit on %d: %s" sx e)
      | Sim.Submit _, Sim.Rejected -> ()
      | Sim.Finish nth, Sim.Finished_on sx -> (
          let sx', local = List.nth !acked (!n_acked - 1 - nth) in
          if sx' <> sx then
            Alcotest.failf "replay: finish recorded on %d, routed to %d" sx sx';
          match Cluster.finish clusters.(sx) local with
          | Ok () -> ()
          | Error e -> Alcotest.failf "replay finish on %d: %s" sx e)
      | Sim.Finish _, Sim.Noop -> ()
      | _ -> Alcotest.fail "replay: op and decision shapes disagree")
    ops;
  Array.for_all2
    (fun (c : Cluster.t) expect -> Cluster.stats c = expect)
    clusters r.Sim.stats

let prop_routing_replay =
  QCheck.Test.make ~name:"federation: routing-replay equivalence" ~count:40
    QCheck.(triple (int_range 1 4) (int_range 3 5) (int_range 0 1_000_000))
    (fun (shards, mexp, seed) ->
      let machine_size = 1 lsl mexp in
      let ops = Sim.script ~seed ~ops:120 ~machine_size ~tenants:3 in
      let tenant_quota =
        if seed mod 2 = 0 then Some (2 * machine_size) else None
      in
      let r =
        get_ok ~ctx:"sim" (Sim.run ~shards ~machine_size ?tenant_quota ~ops ())
      in
      let total_routed = Array.fold_left ( + ) 0 r.Sim.routed in
      let routed_decisions =
        Array.fold_left
          (fun acc d -> match d with Sim.Routed _ -> acc + 1 | _ -> acc)
          0 r.Sim.decisions
      in
      total_routed = routed_decisions
      && replay_matches ~shards ~machine_size ~ops r)

let test_sim_rebalance_deterministic () =
  let machine_size = 16 in
  let ops = Sim.script ~seed:7 ~ops:400 ~machine_size ~tenants:4 in
  let config =
    { Rebalance.default_config with threshold = 0; max_tasks = 4 }
  in
  let run () =
    get_ok ~ctx:"sim"
      (Sim.run ~shards:3 ~machine_size ~rebalance:(config, 25) ~ops ())
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-for-bit deterministic" true (a = b);
  Alcotest.(check bool) "the planner actually migrated tasks" true
    (a.Sim.rebalanced > 0);
  let rounds = List.length ops / 25 in
  Alcotest.(check bool) "per-round task budget bounds the total" true
    (a.Sim.rebalanced <= rounds * config.Rebalance.max_tasks)

(* A federation needs a shard, and reports placements in the aggregate
   leaf space, shard machines side by side in shard order: over shards
   of 8, 4, 16 and 8 PEs a shard-local base 1 reads 1, 9, 13 and 29. *)
let test_route_aggregate_leaves () =
  (match Route.create ~shard_sizes:[||] ~capacities:[||] ~quota:None with
  | Ok _ -> Alcotest.fail "a federation of no shards was created"
  | Error _ -> ());
  let route =
    get_ok ~ctx:"route"
      (Route.create ~shard_sizes:[| 8; 4; 16; 8 |] ~capacities:(Array.make 4 None)
         ~quota:None)
  in
  let call _ = function
    | Protocol.Submit size ->
        Ok (Protocol.Placed (0, { Protocol.base = 1; size; copy = 0 }))
    | _ -> Ok (Protocol.Error "not a submit")
  in
  Alcotest.(check (list (pair int int)))
    "each shard once, leftmost first, bases offset" [ (0, 1); (1, 9); (2, 13); (3, 29) ]
    (List.init 4 (fun _ ->
         match Route.request route ~call ~tenant:0 (Protocol.Submit 4) with
         | Protocol.Placed (_, p), Some sx -> (sx, p.Protocol.base)
         | r, _ -> Alcotest.failf "submit: %s" (Protocol.encode_response r)))

(* Tenant ids are never reused, so the routing core must forget a
   tenant whose admitted PEs return to 0, quota or no quota: 1000
   tenants that each submit and finish leave no entry behind. *)
let test_route_forgets_idle_tenants () =
  let route =
    get_ok ~ctx:"route"
      (Route.create ~shard_sizes:[| 8; 8 |] ~capacities:[| None; None |]
         ~quota:None)
  in
  let next = Array.make 2 0 in
  let call sx = function
    | Protocol.Submit size ->
        next.(sx) <- next.(sx) + 1;
        Ok (Protocol.Placed (next.(sx), { Protocol.base = 0; size; copy = 0 }))
    | Protocol.Finish _ -> Ok Protocol.Finished
    | _ -> Ok (Protocol.Error "not a shard request")
  in
  let tenants = 1000 in
  let gids =
    List.init tenants (fun tenant ->
        match Route.request route ~call ~tenant (Protocol.Submit 1) with
        | Protocol.Placed (gid, _), Some _ -> (tenant, gid)
        | r, _ -> Alcotest.failf "submit: %s" (Protocol.encode_response r))
  in
  Alcotest.(check int) "every tenant holds a PE" tenants (Route.tenants route);
  List.iter
    (fun (tenant, gid) ->
      match Route.request route ~call ~tenant (Protocol.Finish gid) with
      | Protocol.Finished, Some _ -> ()
      | r, _ -> Alcotest.failf "finish: %s" (Protocol.encode_response r))
    gids;
  Alcotest.(check int) "no tenant entry left" 0 (Route.tenants route)

(* A rebalance round leaves no stale summary: its audit refreshes every
   shard it touched. Two 4-PE shards, shard 0 at load 2 and shard 1
   idle: the round moves one machine-filling task across, and right
   after it both summaries must read the true load 1 — the source must
   not keep its pre-move max until the next poll. *)
let test_rebalance_refreshes_summaries () =
  let clusters =
    Array.init 2 (fun _ ->
        get_ok ~ctx:"cluster"
          (Cluster.create ~machine_size:4 ~policy:Cluster.Greedy ()))
  in
  let call sx req = Ok (Protocol.answer clusters.(sx) req) in
  let route =
    get_ok ~ctx:"route"
      (Route.create ~shard_sizes:[| 4; 4 |] ~capacities:[| None; None |]
         ~quota:None)
  in
  let poll () =
    Array.iteri (fun sx c -> Route.observe route sx (Cluster.stats c)) clusters
  in
  let gids =
    List.init 4 (fun _ ->
        match Route.request route ~call ~tenant:0 (Protocol.Submit 4) with
        | Protocol.Placed (gid, _), Some sx -> (gid, sx)
        | r, _ -> Alcotest.failf "submit: %s" (Protocol.encode_response r))
  in
  List.iter
    (fun (gid, sx) ->
      if sx = 1 then
        ignore (Route.request route ~call ~tenant:0 (Protocol.Finish gid)))
    gids;
  poll ();
  Alcotest.(check (list int)) "before the round" [ 2; 0 ]
    [ Route.load route 0; Route.load route 1 ];
  Route.rebalance route ~call
    { Rebalance.default_config with threshold = 0; max_tasks = 1 };
  Alcotest.(check int) "one task moved" 1 (Route.counts route).Route.rebalanced;
  Alcotest.(check (list int)) "after the round, as a poll would read" [ 1; 1 ]
    [ Route.load route 0; Route.load route 1 ];
  poll ();
  Alcotest.(check (list int)) "the poll agrees" [ 1; 1 ]
    [ Route.load route 0; Route.load route 1 ]

(* A ledger miss asks the id's birth shard, but the slot a rebalance
   move landed in is no client's id: over two 4-PE shards, shard 1
   mints locals 0 and 1 for gids 1 and 3, so the task moved to it gets
   local 2, the slot of gid 5, which no submit returned. Asked for 5,
   the router answers as for any unknown id, and the moved task lives
   on under its own id. *)
let test_landing_slot_names_no_task () =
  let clusters =
    Array.init 2 (fun _ ->
        get_ok ~ctx:"cluster"
          (Cluster.create ~machine_size:4 ~policy:Cluster.Greedy ()))
  in
  let call sx req = Ok (Protocol.answer clusters.(sx) req) in
  let route =
    get_ok ~ctx:"route"
      (Route.create ~shard_sizes:[| 4; 4 |] ~capacities:[| None; None |]
         ~quota:None)
  in
  let ask req = fst (Route.request route ~call ~tenant:0 req) in
  let gids =
    List.init 4 (fun _ ->
        match Route.request route ~call ~tenant:0 (Protocol.Submit 4) with
        | Protocol.Placed (gid, _), Some sx -> (gid, sx)
        | r, _ -> Alcotest.failf "submit: %s" (Protocol.encode_response r))
  in
  Alcotest.(check (list (pair int int))) "alternating shards"
    [ (0, 0); (1, 1); (2, 0); (3, 1) ] gids;
  List.iter (fun (gid, sx) -> if sx = 1 then ignore (ask (Protocol.Finish gid))) gids;
  Array.iteri (fun sx c -> Route.observe route sx (Cluster.stats c)) clusters;
  Route.rebalance route ~call
    { Rebalance.default_config with threshold = 0; max_tasks = 1 };
  Alcotest.(check int) "one task moved" 1 (Route.counts route).Route.rebalanced;
  let expect ~ctx want got =
    if got <> want then
      Alcotest.failf "%s: got %s, want %s" ctx (Protocol.encode_response got)
        (Protocol.encode_response want)
  in
  expect ~ctx:"query 5" (Protocol.State (5, Protocol.Unknown))
    (ask (Protocol.Query 5));
  expect ~ctx:"finish 5" (Protocol.Error "unknown or finished task")
    (ask (Protocol.Finish 5));
  Alcotest.(check (list int)) "both tasks still live" [ 1; 1 ]
    (Array.to_list
       (Array.map (fun c -> (Cluster.stats c).Cluster.active_now) clusters));
  List.iter
    (fun (gid, sx) ->
      if sx = 0 then expect ~ctx:"finish by own id" Protocol.Finished
          (ask (Protocol.Finish gid)))
    gids

(* --- the shard-tagged response wrapper ---------------------------- *)

let test_shard_tag_roundtrip () =
  let resp = Protocol.Queued 42 in
  let buf = Buffer.create 32 in
  Protocol.response_payload_rid buf ~rid:7 ~shard:2 resp;
  let s = Buffer.contents buf in
  (match
     Protocol.decode_response_payload_attr s ~pos:0 ~limit:(String.length s)
   with
  | Ok (r, Some 7, Some 2) when r = resp -> ()
  | Ok _ -> Alcotest.fail "binary shard-tagged wrapper did not round-trip"
  | Error e -> Alcotest.fail e);
  (match Protocol.decode_response_payload s ~pos:0 ~limit:(String.length s) with
  | Ok r when r = resp -> ()
  | _ -> Alcotest.fail "plain decoder must accept and drop the shard tag");
  let buf = Buffer.create 32 in
  Protocol.response_payload_rid buf ~rid:9 resp;
  let s = Buffer.contents buf in
  (match
     Protocol.decode_response_payload_attr s ~pos:0 ~limit:(String.length s)
   with
  | Ok (r, Some 9, None) when r = resp -> ()
  | _ -> Alcotest.fail "plain rid wrapper reports no shard");
  match
    Protocol.decode_response_attr (Protocol.encode_response ~rid:7 ~shard:2 resp)
  with
  | Ok (r, Some 7, Some 2) when r = resp -> ()
  | _ -> Alcotest.fail "JSON shard member did not round-trip"

(* --- live federation over real sockets ---------------------------- *)

let start_shard ~dir ~machine_size ?crash_after k =
  let sdir = Filename.concat dir (Printf.sprintf "shard-%d" k) in
  let config =
    {
      (Server.default_config ~machine_size ~policy:Cluster.Greedy ~dir:sdir) with
      Server.snapshot_every = 0;
      crash_after;
    }
  in
  let server = Result.get_ok (Server.create config) in
  let path = Filename.concat sdir "pmp.sock" in
  let listener = Server.listen_unix path in
  let domain =
    Domain.spawn (fun () ->
        match Server.serve server ~listeners:[ listener ] with
        | () -> false
        | exception Server.Crash -> true)
  in
  (path, domain)

let router_config ~sockets ~dir =
  {
    (Router.default_config ~sockets ~dir) with
    poll_interval = 0.05;
    shutdown_shards = true;
  }

let submit_acked ~ctx client size =
  match Client.request client (Protocol.Submit size) with
  | Ok (Protocol.Placed (gid, _)) | Ok (Protocol.Queued gid) -> gid
  | Ok r ->
      Alcotest.failf "%s: unexpected reply %s" ctx (Protocol.encode_response r)
  | Error e -> Alcotest.failf "%s: %s" ctx e

let shutdown_router client =
  match Client.request client Protocol.Shutdown with
  | Ok Protocol.Bye -> ()
  | Ok r ->
      Alcotest.failf "shutdown: unexpected reply %s"
        (Protocol.encode_response r)
  | Error e -> Alcotest.failf "shutdown: %s" e

(* A full session against 3 shards: min-of-max spreads machine-filling
   tasks one per shard, shard-tagged ids resolve for query and finish,
   and stats/loads aggregate across the federation. *)
let test_live_session () =
  with_dir (fun dir ->
      let shards = List.init 3 (start_shard ~dir ~machine_size:8) in
      let sockets = Array.of_list (List.map fst shards) in
      let router =
        get_ok ~ctx:"router" (Router.create (router_config ~sockets ~dir))
      in
      Alcotest.(check int) "aggregate size" 24 (Router.aggregate_size router);
      let fed_path = Filename.concat dir "fed.sock" in
      let listener = Server.listen_unix fed_path in
      let rdom =
        Domain.spawn (fun () -> Router.serve router ~listeners:[ listener ])
      in
      let client =
        get_ok ~ctx:"connect" (Client.connect_unix ~proto:Client.Binary fed_path)
      in
      (* three machine-filling tasks: min-of-max must use every shard *)
      let gids = List.init 3 (fun _ -> submit_acked ~ctx:"submit" client 8) in
      Alcotest.(check (list int))
        "one per shard" [ 0; 1; 2 ]
        (List.sort compare (List.map (fun g -> g mod 3) gids));
      List.iter
        (fun g ->
          match Client.request client (Protocol.Query g) with
          | Ok (Protocol.State (g', Protocol.Active _)) when g' = g -> ()
          | Ok r ->
              Alcotest.failf "query %d: unexpected reply %s" g
                (Protocol.encode_response r)
          | Error e -> Alcotest.failf "query %d: %s" g e)
        gids;
      (match Client.request client (Protocol.Finish (List.hd gids)) with
      | Ok Protocol.Finished -> ()
      | Ok r ->
          Alcotest.failf "finish: unexpected reply %s"
            (Protocol.encode_response r)
      | Error e -> Alcotest.failf "finish: %s" e);
      (match Client.request client Protocol.Stats with
      | Ok (Protocol.Stats_reply st) ->
          Alcotest.(check int) "submitted" 3 st.Cluster.submitted;
          Alcotest.(check int) "completed" 1 st.Cluster.completed
      | Ok r ->
          Alcotest.failf "stats: unexpected reply %s"
            (Protocol.encode_response r)
      | Error e -> Alcotest.failf "stats: %s" e);
      (match Client.request client Protocol.Loads with
      | Ok (Protocol.Loads_reply loads) ->
          Alcotest.(check int) "aggregate loads" 24 (Array.length loads)
      | Ok r ->
          Alcotest.failf "loads: unexpected reply %s"
            (Protocol.encode_response r)
      | Error e -> Alcotest.failf "loads: %s" e);
      shutdown_router client;
      Client.close client;
      Domain.join rdom;
      List.iter (fun (_, d) -> ignore (Domain.join d)) shards)

(* The failover acceptance property: crash one shard mid-stream via
   injection. Every submit the client sees acknowledged must stay
   resolvable — immediately on a healthy shard (queued tasks are
   re-admitted, in-flight submits fail over) or on the crashed shard
   once it restarts from its own WAL and a probe re-homes it. *)
let test_failover_no_acked_loss () =
  with_dir (fun dir ->
      let machine_size = 4 and victim = 1 in
      let shards =
        List.init 3 (fun k ->
            start_shard ~dir ~machine_size
              ?crash_after:(if k = victim then Some 6 else None)
              k)
      in
      let sockets = Array.of_list (List.map fst shards) in
      let router =
        get_ok ~ctx:"router" (Router.create (router_config ~sockets ~dir))
      in
      let fed_path = Filename.concat dir "fed.sock" in
      let listener = Server.listen_unix fed_path in
      let rdom =
        Domain.spawn (fun () -> Router.serve router ~listeners:[ listener ])
      in
      let client =
        get_ok ~ctx:"connect" (Client.connect_unix ~proto:Client.Binary fed_path)
      in
      (* enough unit tasks to fill all 12 PEs, queue backlog on every
         shard, and trip the victim's 6th mutation mid-stream; every
         one must be acknowledged despite the crash *)
      let gids = List.init 30 (fun _ -> submit_acked ~ctx:"submit" client 1) in
      let crashed = Domain.join (snd (List.nth shards victim)) in
      Alcotest.(check bool) "crash injection fired" true crashed;
      (* acked ids resolve on a healthy shard or name the down one —
         never unknown *)
      List.iter
        (fun g ->
          match Client.request client (Protocol.Query g) with
          | Ok (Protocol.State (_, (Protocol.Active _ | Protocol.Queued_task)))
            -> ()
          | Ok (Protocol.Error msg) ->
              let mentions_down =
                let sub = "down" in
                let n = String.length msg and k = String.length sub in
                let rec scan i =
                  i + k <= n && (String.sub msg i k = sub || scan (i + 1))
                in
                scan 0
              in
              if not mentions_down then
                Alcotest.failf "query %d: lost acknowledged task (%s)" g msg
          | Ok r ->
              Alcotest.failf "query %d: unexpected reply %s" g
                (Protocol.encode_response r)
          | Error e -> Alcotest.failf "query %d: %s" g e)
        gids;
      (* restart the victim on its own durable state; the router's
         probe reconnects it and every acked id must resolve *)
      let _, victim_dom = start_shard ~dir ~machine_size victim in
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_resolved g =
        match Client.request client (Protocol.Query g) with
        | Ok (Protocol.State (_, (Protocol.Active _ | Protocol.Queued_task)))
          -> ()
        | Ok (Protocol.Error _) when Unix.gettimeofday () < deadline ->
            Unix.sleepf 0.05;
            wait_resolved g
        | Ok r ->
            Alcotest.failf "query %d after restart: %s" g
              (Protocol.encode_response r)
        | Error e -> Alcotest.failf "query %d after restart: %s" g e
      in
      List.iter wait_resolved gids;
      shutdown_router client;
      Client.close client;
      Domain.join rdom;
      ignore (Domain.join victim_dom);
      List.iteri
        (fun k (_, d) -> if k <> victim then ignore (Domain.join d))
        shards)

(* --- the pipelined hop ---------------------------------------------- *)

module Netbuf = Pmp_server.Netbuf
module Wire = Pmp_server.Wire

let metric_of client name =
  let dump = get_ok ~ctx:"metrics" (Client.metrics client) in
  match Pmp_telemetry.Metrics.Dump.value dump name with
  | Some v -> v
  | None -> Alcotest.failf "metrics: no %s" name

(* One response, either encoding, with its rid and shard tags. *)
let decode_reply s =
  if Char.code s.[0] = Wire.request_magic then begin
    let cur = { Wire.pos = 2 } in
    let len = Wire.read_varint (Bytes.of_string s) cur (String.length s) in
    Protocol.decode_response_payload_attr s ~pos:cur.Wire.pos
      ~limit:(cur.Wire.pos + len)
  end
  else Protocol.decode_response_attr (String.sub s 0 (String.length s - 1))

(* A router over [shards] fresh shards, its config adjusted by [tune]. *)
let start_router ~dir ~machine_size ~shards tune =
  Unix.mkdir dir 0o755;
  let shards = List.init shards (start_shard ~dir ~machine_size) in
  let sockets = Array.of_list (List.map fst shards) in
  let router =
    get_ok ~ctx:"router" (Router.create (tune (router_config ~sockets ~dir)))
  in
  (router, shards)

(* A router driven in process, on one connection's buffers, over its
   own pair of fresh shards. *)
let in_process_router ~dir ~machine_size =
  let router, shards = start_router ~dir ~machine_size ~shards:2 Fun.id in
  (router, shards, Netbuf.create 256, Netbuf.create 256)

(* Feed frames and return the bytes of every response they produced. *)
let feed (router, _, inb, out) frames =
  List.iter (Netbuf.add_string inb) frames;
  let n =
    match Router.handle_conn router inb out ~budget:64 with
    | `Handled n | `Stop n -> n
  in
  let bytes = Netbuf.sub_string out ~off:0 ~len:(Netbuf.length out) in
  Netbuf.clear out;
  (n, bytes)

let stop_router ((router, shards, _, _) as r) =
  ignore (feed r [ Protocol.encode_request_binary Protocol.Shutdown ]);
  List.iter (fun (_, d) -> ignore (Domain.join d)) shards;
  Router.close router

(* One request through an in-process router, one reply back. *)
let ask r req =
  match feed r [ Protocol.encode_request_binary req ] with
  | 1, bytes -> (
      match decode_reply bytes with
      | Ok (resp, _, _) -> resp
      | Error e -> Alcotest.failf "undecodable reply: %s" e)
  | n, _ -> Alcotest.failf "%d replies to one request" n

let stats_of_router r =
  match ask r Protocol.Stats with
  | Protocol.Stats_reply st -> st
  | resp -> Alcotest.failf "stats: unexpected reply %s" (Protocol.encode_response resp)

let metric_of_router r name =
  match ask r Protocol.Metrics with
  | Protocol.Metrics_reply dump -> Pmp_telemetry.Metrics.Dump.value dump name
  | resp -> Alcotest.failf "metrics: unexpected reply %s" (Protocol.encode_response resp)

(* The router merges its shards' metrics as the mesh merges its cores':
   a max-type gauge is the largest shard value, not the sum, so the
   merged [pmpd_max_load] is the merged stats' max load. Two
   machine-filling tasks go one to each shard, so a sum would read 2. *)
let test_router_merges_max_gauges () =
  with_dir (fun dir ->
      let r = in_process_router ~dir:(Filename.concat dir "fed") ~machine_size:8 in
      let ask = ask r in
      for _ = 1 to 2 do
        match ask (Protocol.Submit 8) with
        | Protocol.Placed _ -> ()
        | resp ->
            Alcotest.failf "submit: unexpected reply %s"
              (Protocol.encode_response resp)
      done;
      let max_load = (stats_of_router r).Cluster.max_load in
      Alcotest.(check int) "one task per shard" 1 max_load;
      Alcotest.(check (option (float 0.0))) "merged pmpd_max_load"
        (Some (float_of_int max_load))
        (metric_of_router r "pmpd_max_load");
      stop_router r)

(* Behind a router, [pmpd_p99_load_ratio] divides the largest shard
   load by the whole federation's L*, as the merged stats do: 16 unit
   submits over four 4-PE shards, routed on summaries no poll has
   refreshed, stack up on some shard while L* is 1 — and each shard's
   own ratio, over its own L*, reads 1 there. *)
let test_router_load_ratio () =
  with_dir (fun dir ->
      let router, shards =
        start_router ~dir:(Filename.concat dir "fed") ~machine_size:4 ~shards:4
          (fun c -> { c with Router.poll_interval = 0.0 })
      in
      let r = (router, shards, Netbuf.create 256, Netbuf.create 256) in
      for _ = 1 to 16 do
        match ask r (Protocol.Submit 1) with
        | Protocol.Placed _ -> ()
        | resp ->
            Alcotest.failf "submit: unexpected reply %s"
              (Protocol.encode_response resp)
      done;
      (* one poll *)
      ignore (Router.tick router);
      let st = stats_of_router r in
      Alcotest.(check (pair int int)) "merged max load and L*" (2, 1)
        (st.Cluster.max_load, st.Cluster.optimal_now);
      let ratio =
        Some (float_of_int st.Cluster.max_load /. float_of_int st.Cluster.optimal_now)
      in
      Alcotest.(check (option (float 0.0))) "pmpd_p99_load_ratio" ratio
        (metric_of_router r "pmpd_p99_load_ratio");
      Alcotest.(check (option (float 0.0))) "and its high-water mark" ratio
        (metric_of_router r "pmpd_p99_load_ratio_max");
      stop_router r)

(* A router that did not route a task still finds it: a second router
   over the same shards has an empty ledger, so a finish or query of
   the first one's ids goes to the birth shard the id names, which
   answers with authority. A negative id, and an id its shard refuses,
   keep the answers a ledger miss always gave. *)
let test_ledger_miss_asks_birth_shard () =
  with_dir (fun dir ->
      let ((first, shards, _, _) as r) =
        in_process_router ~dir:(Filename.concat dir "fed") ~machine_size:16
      in
      let placed =
        List.init 3 (fun i ->
            match ask r (Protocol.Submit 4) with
            | Protocol.Placed (gid, p) -> (gid, p)
            | resp ->
                Alcotest.failf "submit %d: unexpected reply %s" i
                  (Protocol.encode_response resp))
      in
      let sockets = Array.of_list (List.map fst shards) in
      let second =
        get_ok ~ctx:"second router"
          (Router.create (router_config ~sockets ~dir:(Filename.concat dir "fed")))
      in
      let r' = (second, shards, Netbuf.create 256, Netbuf.create 256) in
      let expect ~ctx want got =
        if got <> want then
          Alcotest.failf "%s: got %s, want %s" ctx (Protocol.encode_response got)
            (Protocol.encode_response want)
      in
      List.iter
        (fun (gid, p) ->
          let ctx what = Printf.sprintf "task %d: %s" gid what in
          expect ~ctx:(ctx "query") (Protocol.State (gid, Protocol.Active p))
            (ask r' (Protocol.Query gid));
          expect ~ctx:(ctx "finish") Protocol.Finished (ask r' (Protocol.Finish gid));
          expect ~ctx:(ctx "query after finish")
            (Protocol.State (gid, Protocol.Unknown))
            (ask r' (Protocol.Query gid));
          expect ~ctx:(ctx "finish again")
            (Protocol.Error "unknown or finished task")
            (ask r' (Protocol.Finish gid)))
        placed;
      expect ~ctx:"negative query" (Protocol.State (-3, Protocol.Unknown))
        (ask r' (Protocol.Query (-3)));
      expect ~ctx:"negative finish" (Protocol.Error "unknown or finished task")
        (ask r' (Protocol.Finish (-3)));
      Alcotest.(check int) "the shards hold nothing" 0
        (stats_of_router r').Cluster.active_now;
      stop_router r';
      Router.close first)

(* The tentpole contract: a 64-frame batch through the pipelined hop
   answers byte for byte what the same frames answer one at a time —
   same gids, same placement bases, same errors, same order. The
   stream mixes both encodings, rid-tagged and bare frames, fan-outs
   that cut the batch, an undecodable frame, ids no submit has
   returned yet, and a task finished twice in one batch. *)
let test_pipelined_matches_serial () =
  with_dir (fun dir ->
      let machine_size = 16 in
      let serial =
        in_process_router ~dir:(Filename.concat dir "serial") ~machine_size
      in
      let piped =
        in_process_router ~dir:(Filename.concat dir "piped") ~machine_size
      in
      let g = Sm.create 0x5EED in
      let live = ref [] and newest = ref 0 in
      let guessed = Hashtbl.create 16 in
      let take_live () =
        let a = Array.of_list !live in
        let gid = a.(Sm.int g (Array.length a)) in
        live := List.filter (( <> ) gid) !live;
        gid
      in
      let rid = ref 0 in
      let frame req =
        incr rid;
        match !rid mod 9 with
        | 0 -> Protocol.encode_request ~rid:!rid req ^ "\n"
        | 4 -> Protocol.encode_request_binary req
        | _ -> Protocol.encode_request_binary ~rid:!rid req
      in
      let bad_frame =
        String.init 4 (function
          | 0 -> Char.chr Wire.request_magic
          | 1 -> Char.chr Wire.version
          | 2 -> '\001'
          | _ -> '\099')
      in
      let random_req () =
        let r = Sm.int g 100 in
        if r < 45 || !live = [] then Protocol.Submit (1 lsl Sm.int g 4)
        else if r < 70 then Protocol.Finish (take_live ())
        else if r < 88 then
          Protocol.Query (List.nth !live (Sm.int g (List.length !live)))
        else if r < 96 then begin
          (* a guessed id: maybe one a submit of this very batch gets *)
          let gid = !newest + 1 + Sm.int g 6 in
          Hashtbl.replace guessed gid ();
          Protocol.Query gid
        end
        else Protocol.Stats
      in
      let double_finishes = ref 0 and guessed_hits = ref 0 in
      for chunk = 0 to 4 do
        let special =
          if chunk >= 1 && !live <> [] then begin
            let gid = take_live () in
            [ Protocol.Finish gid; Protocol.Query gid; Protocol.Finish gid ]
          end
          else []
        in
        let frames =
          List.map frame special
          @ List.init
              (63 - List.length special)
              (fun _ -> frame (random_req ()))
          @ [ bad_frame ]
        in
        let expect =
          String.concat ""
            (List.map
               (fun f ->
                 let n, bytes = feed serial [ f ] in
                 Alcotest.(check int) "serial: one frame per call" 1 n;
                 (match decode_reply bytes with
                 | Ok ((Protocol.Placed (gid, _) | Protocol.Queued gid), _, _) ->
                     live := gid :: !live;
                     newest := max !newest gid
                 | Ok (Protocol.Error "unknown or finished task", _, _) ->
                     incr double_finishes
                 | Ok (Protocol.State (gid, Protocol.Active _), _, _)
                   when Hashtbl.mem guessed gid ->
                     incr guessed_hits
                 | Ok _ -> ()
                 | Error e -> Alcotest.failf "serial reply: %s" e);
                 bytes)
               frames)
        in
        let n, got = feed piped frames in
        Alcotest.(check int) "pipelined: the whole chunk in one call" 64 n;
        Alcotest.(check string)
          (Printf.sprintf "chunk %d: pipelined = serial, byte for byte" chunk)
          expect got
      done;
      Alcotest.(check bool) "a task was finished twice within a batch" true
        (!double_finishes > 0);
      Alcotest.(check bool) "a guessed id named a submit of its own batch"
        true (!guessed_hits > 0);
      let batches r =
        let _, bytes =
          feed r [ Protocol.encode_request_binary Protocol.Metrics ]
        in
        match decode_reply bytes with
        | Ok (Protocol.Metrics_reply dump, _, _) ->
            Option.get
              (Pmp_telemetry.Metrics.Dump.value dump
                 "fed_upstream_batches_total")
        | _ -> Alcotest.fail "metrics reply"
      in
      let bs = batches serial and bp = batches piped in
      if not (bp *. 2.0 < bs) then
        Alcotest.failf "pipelined router flushed %.0f batches, serial %.0f" bp
          bs;
      stop_router serial;
      stop_router piped)

(* The live router against [Sim] on one script. Both run [Route], so
   with a stats poll after every op (and, given [rebalance], a round
   after every op too) each op must get the decision [Sim.run]
   records. Each tenant has its own connection, and a ping on each
   claims the tenant ids in order; the shard comes from the tag on the
   rid echo. Returns the mismatches, each described, and the sim's
   result. *)
let router_vs_sim ~dir ~shards ~machine_size ?tenant_quota ?rebalance ~seed
    ~ops () =
  let tenants = 4 in
  let script = Sim.script ~seed ~ops ~machine_size ~tenants in
  let sim =
    get_ok ~ctx:"sim"
      (Sim.run ~shards ~machine_size ?tenant_quota
         ?rebalance:(Option.map (fun c -> (c, 1)) rebalance)
         ~ops:script ())
  in
  let aggregate = float_of_int (shards * machine_size) in
  let router, shard_doms =
    start_router ~dir ~machine_size ~shards (fun c ->
        {
          c with
          Router.poll_interval = 0.0;
          tenant_quota =
            Option.map (fun q -> float_of_int q /. aggregate) tenant_quota;
          rebalance;
          rebalance_interval = 0.0;
        })
  in
  let conns =
    Array.init tenants (fun _ ->
        (router, shard_doms, Netbuf.create 256, Netbuf.create 256))
  in
  let rid = ref 0 in
  let send tenant req =
    incr rid;
    let _, bytes =
      feed conns.(tenant) [ Protocol.encode_request_binary ~rid:!rid req ]
    in
    match decode_reply bytes with
    | Ok (resp, Some r, shard) when r = !rid -> (resp, shard)
    | Ok (resp, _, _) ->
        Alcotest.failf "no rid on %s" (Protocol.encode_response resp)
    | Error e -> Alcotest.failf "reply: %s" e
  in
  Array.iteri
    (fun tenant _ ->
      match send tenant Protocol.Ping with
      | Protocol.Pong, _ -> ()
      | r, _ -> Alcotest.failf "ping: %s" (Protocol.encode_response r))
    conns;
  let acked = Array.make ops 0 and n_acked = ref 0 in
  let mismatches = ref [] in
  List.iteri
    (fun i op ->
      let got =
        match op with
        | Sim.Submit { size; tenant } -> (
            match send tenant (Protocol.Submit size) with
            | (Protocol.Placed (gid, _) | Protocol.Queued gid), Some sx ->
                acked.(!n_acked) <- gid;
                incr n_acked;
                Sim.Routed sx
            | _ -> Sim.Rejected)
        | Sim.Finish nth when nth < !n_acked -> (
            match send 0 (Protocol.Finish acked.(nth)) with
            | Protocol.Finished, Some sx -> Sim.Finished_on sx
            | _ -> Sim.Noop)
        | Sim.Finish _ -> Sim.Noop
      in
      ignore (Router.tick router);
      let show = function
        | Sim.Routed sx -> Printf.sprintf "routed %d" sx
        | Sim.Rejected -> "rejected"
        | Sim.Finished_on sx -> Printf.sprintf "finished on %d" sx
        | Sim.Noop -> "noop"
      in
      if got <> sim.Sim.decisions.(i) then
        mismatches :=
          Printf.sprintf "op %d: router %s, sim %s" i (show got)
            (show sim.Sim.decisions.(i))
          :: !mismatches)
    script;
  stop_router conns.(0);
  (List.rev !mismatches, sim)

(* ROADMAP's pin of the one routing core: on client requests, with and
   without a tenant quota (quotas chosen to convert exactly to the
   router's fraction of the aggregate), and on a rebalance leg that
   must move tasks — the regress golden moves none. *)
let test_router_matches_sim () =
  with_dir (fun dir ->
      let leg name ~shards ~machine_size ?tenant_quota ?rebalance ~seed ~ops ()
          =
        let mismatches, sim =
          router_vs_sim ~dir:(Filename.concat dir name) ~shards ~machine_size
            ?tenant_quota ?rebalance ~seed ~ops ()
        in
        (match mismatches with
        | [] -> ()
        | first :: _ ->
            Alcotest.failf "%s: %d of %d decisions differ, first %s" name
              (List.length mismatches) ops first);
        sim
      in
      ignore (leg "3x64" ~shards:3 ~machine_size:64 ~seed:1 ~ops:600 ());
      let quota48 =
        leg "3x64-quota48" ~shards:3 ~machine_size:64 ~tenant_quota:48 ~seed:2
          ~ops:600 ()
      in
      let quota32 =
        leg "2x64-quota32" ~shards:2 ~machine_size:64 ~tenant_quota:32 ~seed:3
          ~ops:2000 ()
      in
      Alcotest.(check bool) "the quotas refused submits" true
        (quota48.Sim.rejects > 0 && quota32.Sim.rejects > 0);
      let moved =
        leg "3x16-rebalance" ~shards:3 ~machine_size:16
          ~rebalance:
            { Rebalance.default_config with threshold = 0; max_tasks = 4 }
          ~seed:7 ~ops:400 ()
      in
      Alcotest.(check bool) "the rebalance leg moved tasks" true
        (moved.Sim.rebalanced > 0))

let submit_batch ~ctx client ~first_rid ~size n =
  for i = 0 to n - 1 do
    Client.queue client ~rid:(first_rid + i) (Protocol.Submit size)
  done;
  get_ok ~ctx (Client.flush client);
  List.init n (fun i ->
      match Client.receive_attr client with
      | Ok ((Protocol.Placed (gid, _) | Protocol.Queued gid), Some rid, _)
        when rid = first_rid + i ->
          gid
      | Ok (r, rid, _) ->
          Alcotest.failf "%s: reply %d: %s (rid %s)" ctx i
            (Protocol.encode_response r)
            (Option.fold ~none:"none" ~some:string_of_int rid)
      | Error e -> Alcotest.failf "%s: reply %d: %s" ctx i e)

(* A shard dies while a client batch is in flight on it: the client
   still gets exactly one reply per frame, in order (the victim's
   submits fail over), every acked gid resolves once the victim is
   back, and the rebalance audits that run throughout find nothing. *)
let test_shard_dies_mid_batch () =
  with_dir (fun dir ->
      (* machine-filling tasks raise a shard's load by one each, so
         min-of-max deals them round-robin *)
      let machine_size = 8 and victim = 1 in
      let shards =
        List.init 3 (fun k ->
            start_shard ~dir ~machine_size
              ?crash_after:(if k = victim then Some 6 else None)
              k)
      in
      let sockets = Array.of_list (List.map fst shards) in
      let config =
        {
          (router_config ~sockets ~dir) with
          rebalance = Some { Rebalance.default_config with threshold = 1 };
          rebalance_interval = 0.05;
        }
      in
      let router = get_ok ~ctx:"router" (Router.create config) in
      let fed_path = Filename.concat dir "fed.sock" in
      let listener = Server.listen_unix fed_path in
      let rdom =
        Domain.spawn (fun () -> Router.serve router ~listeners:[ listener ])
      in
      let client =
        get_ok ~ctx:"connect" (Client.connect_unix ~proto:Client.Binary fed_path)
      in
      (* two tasks per shard: the victim is 4 mutations short of its trip *)
      let warm = submit_batch ~ctx:"warm-up" client ~first_rid:0 ~size:8 6 in
      (* 16 of these land on the victim, which dies a few in *)
      let hot =
        submit_batch ~ctx:"crash batch" client ~first_rid:6 ~size:8 48
      in
      (match Client.send client ~rid:999 Protocol.Ping with
      | Ok () -> ()
      | Error e -> Alcotest.failf "ping: %s" e);
      (match Client.receive_attr client with
      | Ok (Protocol.Pong, Some 999, _) -> ()
      | Ok (r, _, _) ->
          Alcotest.failf "a stray reply after the batch: %s"
            (Protocol.encode_response r)
      | Error e -> Alcotest.failf "ping: %s" e);
      let crashed = Domain.join (snd (List.nth shards victim)) in
      Alcotest.(check bool) "crash injection fired" true crashed;
      Alcotest.(check bool) "the victim was marked down" true
        (metric_of client "fed_markdowns_total" >= 1.0);
      let _, victim_dom = start_shard ~dir ~machine_size victim in
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_resolved g =
        match Client.request client (Protocol.Query g) with
        | Ok (Protocol.State (_, (Protocol.Active _ | Protocol.Queued_task)))
          -> ()
        | Ok (Protocol.Error _) when Unix.gettimeofday () < deadline ->
            Unix.sleepf 0.05;
            wait_resolved g
        | Ok r ->
            Alcotest.failf "query %d after restart: %s" g
              (Protocol.encode_response r)
        | Error e -> Alcotest.failf "query %d after restart: %s" g e
      in
      List.iter wait_resolved (warm @ hot);
      (* let a few rebalance rounds (and their audits) run over the
         recovered federation *)
      Unix.sleepf 0.3;
      Alcotest.(check (float 0.0)) "no audit failures" 0.0
        (metric_of client "fed_audit_failures_total");
      shutdown_router client;
      Client.close client;
      Domain.join rdom;
      ignore (Domain.join victim_dom);
      List.iteri
        (fun k (_, d) -> if k <> victim then ignore (Domain.join d))
        shards)

(* Every accepted connection gets a tenant slot; a closed one must give
   it back, or each leaks its slot and the in-buffer it pins. *)
let test_connection_slots_released () =
  with_dir (fun dir ->
      let shards = [ start_shard ~dir ~machine_size:8 0 ] in
      let sockets = Array.of_list (List.map fst shards) in
      let router =
        get_ok ~ctx:"router" (Router.create (router_config ~sockets ~dir))
      in
      let fed_path = Filename.concat dir "fed.sock" in
      let listener = Server.listen_unix fed_path in
      let rdom =
        Domain.spawn (fun () -> Router.serve router ~listeners:[ listener ])
      in
      let client =
        get_ok ~ctx:"connect" (Client.connect_unix ~proto:Client.Binary fed_path)
      in
      let start = metric_of client "fed_connections" in
      for _ = 1 to 200 do
        let c =
          get_ok ~ctx:"connect"
            (Client.connect_unix ~proto:Client.Binary fed_path)
        in
        (match Client.request c Protocol.Ping with
        | Ok Protocol.Pong -> ()
        | _ -> Alcotest.fail "ping");
        Client.close c
      done;
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec settled () =
        let n = metric_of client "fed_connections" in
        if n = start || Unix.gettimeofday () > deadline then n
        else begin
          Unix.sleepf 0.02;
          settled ()
        end
      in
      Alcotest.(check (float 0.0)) "back to the starting size" start
        (settled ());
      shutdown_router client;
      Client.close client;
      Domain.join rdom;
      List.iter (fun (_, d) -> ignore (Domain.join d)) shards)

(* The router's JSON path has the daemon's frame cap: a line still
   unterminated past Wire.max_payload bytes is answered with one error
   and dropped, not buffered (and rescanned) without bound. *)
let test_unterminated_line_capped () =
  with_dir (fun dir ->
      let ((_, _, inb, _) as r) =
        in_process_router ~dir:(Filename.concat dir "fed") ~machine_size:16
      in
      let n, reply = feed r [ String.make Wire.max_payload 'x' ] in
      Alcotest.(check int) "within the cap: incomplete" 0 n;
      Alcotest.(check string) "no reply yet" "" reply;
      let n, reply = feed r [ "x" ] in
      Alcotest.(check int) "one failed request" 1 n;
      Alcotest.(check int) "input dropped" 0 (Netbuf.length inb);
      (match String.split_on_char '\n' reply with
      | [ line; "" ] -> (
          match Protocol.decode_response line with
          | Ok (Protocol.Error _) -> ()
          | _ -> Alcotest.failf "not an error reply: %s" line)
      | _ -> Alcotest.failf "expected exactly one reply line: %S" reply);
      stop_router r)

(* A frame with an unsupported wire version or an empty payload is
   consumed and answered with one error, as pmpd does, so a request
   pipelined behind it is still answered; only a garbage length drops
   the rest of the input. The router's replies match the daemon's byte
   for byte, and a client fed the same frames as responses reports the
   same refusal and then reads the pong behind it (after a garbage
   length, the pong the peer sends next). *)
let test_malformed_frames_match_daemon () =
  with_dir (fun dir ->
      let r =
        in_process_router ~dir:(Filename.concat dir "fed") ~machine_size:16
      in
      let server =
        get_ok ~ctx:"pmpd"
          (Server.create
             (Server.default_config ~machine_size:16 ~policy:Cluster.Greedy
                ~dir:(Filename.concat dir "pmpd")))
      in
      let inb = Netbuf.create 256 and out = Netbuf.create 256 in
      let daemon frames =
        List.iter (Netbuf.add_string inb) frames;
        let n =
          match Server.handle_conn server inb out ~budget:64 with
          | `Handled n | `Stop n -> n
        in
        let bytes = Netbuf.sub_string out ~off:0 ~len:(Netbuf.length out) in
        Netbuf.clear out;
        (n, bytes)
      in
      let frame ~version payload =
        String.concat ""
          [
            String.make 1 (Char.chr Wire.request_magic);
            String.make 1 (Char.chr version);
            String.make 1 (Char.chr (String.length payload));
            payload;
          ]
      in
      let ping = Protocol.encode_request_binary Protocol.Ping in
      let reply = Protocol.encode_response_binary in
      let pong = reply Protocol.Pong in
      List.iteri
        (fun i (label, bad, refusal, dropped) ->
          let expect =
            if dropped then (1, reply (Protocol.Error refusal))
            else (2, reply (Protocol.Error refusal) ^ pong)
          in
          let pmpd = daemon [ bad; ping ] and fed = feed r [ bad; ping ] in
          Alcotest.(check (pair int string)) (label ^ ": pmpd") expect pmpd;
          Alcotest.(check (pair int string)) (label ^ ": router") expect fed;
          let peer = Filename.concat dir (Printf.sprintf "peer-%d" i) in
          Unix.mkdir peer 0o755;
          Helpers.with_scripted_peer ~dir:peer (fun client send hang_up ->
              if dropped then send bad else send (bad ^ pong);
              Helpers.expect_receive ~ctx:(label ^ ": client") client
                (Error refusal);
              if dropped then send pong;
              hang_up ();
              Helpers.expect_receive ~ctx:(label ^ ": client, next") client
                (Ok Protocol.Pong)))
        [
          ( "bad version",
            frame ~version:(Wire.version + 1) "\008",
            Printf.sprintf "unsupported wire version %d" (Wire.version + 1),
            false );
          ("empty frame", frame ~version:Wire.version "", "empty frame", false);
          ( "garbage length",
            String.make 1 (Char.chr Wire.request_magic)
            ^ String.make 1 (Char.chr Wire.version)
            ^ String.make Wire.max_varint_bytes '\255',
            "malformed frame",
            true );
        ];
      Server.close server;
      stop_router r)

let suite =
  [
    Alcotest.test_case "fed_index pick script" `Quick test_fed_index_pick;
    Alcotest.test_case "fed_index headroom preference" `Quick
      test_fed_index_headroom;
    Alcotest.test_case "sim rebalance deterministic" `Quick
      test_sim_rebalance_deterministic;
    Alcotest.test_case "route places in the aggregate leaf space" `Quick
      test_route_aggregate_leaves;
    Alcotest.test_case "route forgets idle tenants" `Quick
      test_route_forgets_idle_tenants;
    Alcotest.test_case "rebalance refreshes the summaries it touched" `Quick
      test_rebalance_refreshes_summaries;
    Alcotest.test_case "a moved task's landing slot names no task" `Quick
      test_landing_slot_names_no_task;
    Alcotest.test_case "shard-tag wrapper roundtrip" `Quick
      test_shard_tag_roundtrip;
    Alcotest.test_case "live 3-shard session" `Quick test_live_session;
    Alcotest.test_case "failover keeps every acked task" `Quick
      test_failover_no_acked_loss;
    Alcotest.test_case "pipelined batch = serial, byte for byte" `Quick
      test_pipelined_matches_serial;
    Alcotest.test_case "live router = Sim, decision for decision" `Quick
      test_router_matches_sim;
    Alcotest.test_case "shard dies with a batch in flight" `Quick
      test_shard_dies_mid_batch;
    Alcotest.test_case "closed connections release their slot" `Quick
      test_connection_slots_released;
    Alcotest.test_case "unterminated json line capped" `Quick
      test_unterminated_line_capped;
    Alcotest.test_case "router merges max gauges by max" `Quick
      test_router_merges_max_gauges;
    Alcotest.test_case "router load ratio over the whole federation" `Quick
      test_router_load_ratio;
    Alcotest.test_case "a ledger miss asks the birth shard" `Quick
      test_ledger_miss_asks_birth_shard;
    Alcotest.test_case "malformed frames answered as pmpd does" `Quick
      test_malformed_frames_match_daemon;
  ]
  @ Helpers.qtests
      [
        prop_fed_id_bijection;
        prop_fed_index_leftmost_min;
        prop_rebalance_plan;
        prop_routing_replay;
      ]
