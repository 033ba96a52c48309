module Client = Pmp_server.Client
module Loop = Pmp_server.Loop
module Netbuf = Pmp_server.Netbuf
module Protocol = Pmp_server.Protocol
module Frame = Pmp_server.Frame
module Recorder = Pmp_server.Recorder
module Metrics = Pmp_telemetry.Metrics
module Cluster = Pmp_cluster.Cluster

type config = {
  sockets : string array;
  tenant_quota : float option;
  poll_interval : float;
  probe_interval : float;
  rebalance : Rebalance.config option;
  rebalance_interval : float;
  shutdown_shards : bool;
  dir : string;
  recorder_size : int;
}

let default_config ~sockets ~dir =
  {
    sockets;
    tenant_quota = None;
    poll_interval = 0.5;
    probe_interval = 0.5;
    rebalance = None;
    rebalance_interval = 1.0;
    shutdown_shards = false;
    dir;
    recorder_size = 4096;
  }

type shard = {
  socket : string;
  size : int;
  mutable client : Client.t option;
  g_up : Metrics.Gauge.t;
  g_load : Metrics.Gauge.t;
  c_routed : Metrics.Counter.t;
}

(* A ledger entry is the router's overlay over the [Fed_id] arithmetic:
   where the task lives *now*, which can differ from its birth shard
   after failover re-admission or a rebalance move. *)
type entry = {
  mutable e_shard : int;
  mutable e_local : int;
  e_size : int;
  e_tenant : int;
  mutable e_queued : bool;
}

(* One upstream request awaiting its reply. *)
type call = { mutable reply : (Protocol.response, string) result }

(* The requests queued on one shard's connection in the current batch,
   oldest first: a shard answers strictly in order, so replies need no
   correlation. *)
type lane = { conn : Client.t; calls : call Queue.t }

(* A batch: one lane per touched shard, flushed once by {!exchange}. *)
type batch = lane option array

(* What a client request of the current batch still waits for after
   its issue phase. *)
type wait =
  | Answered
  | Submit_on of { sx : int; size : int; call : call }
  | Finish_on of { gid : int; e : entry; freed : int; call : call }
  | Query_on of { gid : int; e : entry; call : call }

type slot = {
  binary : bool;
  rid : int option;
  req : Protocol.request;
  mutable resp : Protocol.response;
  mutable served : int option;
  mutable wait : wait;
}

(* The client batch being issued: its upstream lanes, its requests in
   client order, and what a later request must not overtake. *)
type pipeline = {
  lanes : batch;
  slots : slot Queue.t;
  finishing : (int, unit) Hashtbl.t;  (** gids whose finish is in flight *)
  mutable submits : int;  (** submits in flight *)
}

type t = {
  config : config;
  plan : Fed_id.plan;
  shardv : shard array;
  shard_sizes : int array;
  offsets : int array;  (** first aggregate leaf per shard *)
  aggregate : int;
  quota_pes : int option;
  index : Fed_index.t;
  ledger : (int, entry) Hashtbl.t;
  mutable conn_tenants : (Netbuf.t * int) list;
      (** open connections only, keyed physically *)
  mutable next_tenant : int;
  tenant_used : (int, int) Hashtbl.t;
  registry : Metrics.Registry.t;
  c_requests : Metrics.Counter.t;
  c_upstream_batches : Metrics.Counter.t;
  c_rejects : Metrics.Counter.t;
  c_markdowns : Metrics.Counter.t;
  c_readmitted : Metrics.Counter.t;
  c_rebalanced : Metrics.Counter.t;
  c_rebalanced_bytes : Metrics.Counter.t;
  c_audit_failures : Metrics.Counter.t;
  g_connections : Metrics.Gauge.t;
  recorder : Recorder.t;
  t0 : float;
  mutable last_poll : float;
  mutable last_probe : float;
  mutable last_rebalance : float;
  mutable dump_requested : bool;
  reader : Frame.reader;
  scratch : Buffer.t;
  pipe : pipeline;
}

let shards t = Array.length t.shardv
let aggregate_size t = t.aggregate
let shard_up t sx = t.shardv.(sx).client <> None

let dump_recorder t =
  (try Unix.mkdir t.config.dir 0o755 with Unix.Unix_error _ -> ());
  let path = Filename.concat t.config.dir "flightrec.jsonl" in
  Recorder.dump t.recorder path;
  path

let close t =
  Array.iter
    (fun s ->
      (match s.client with Some c -> Client.close c | None -> ());
      s.client <- None)
    t.shardv

(* ------------------------------------------------------------------ *)
(* the upstream batch: the only way a request reaches a shard          *)

let issue (b : batch) sx client req =
  let lane =
    match b.(sx) with
    | Some lane -> lane
    | None ->
        let lane = { conn = client; calls = Queue.create () } in
        b.(sx) <- Some lane;
        lane
  in
  let call = { reply = Error "no reply" } in
  Client.queue client req;
  Queue.push call lane.calls;
  call

(* Flush every touched shard once, then read each one's replies in
   order. Returns the shards whose connection failed, in index order;
   their unanswered calls carry the error. Marking them down is the
   caller's move, once it has applied the replies that did arrive. The
   batch is empty again afterwards. *)
let exchange ~flushes (b : batch) =
  let failed = ref [] in
  let fail sx lane e =
    Queue.iter (fun c -> c.reply <- Error e) lane.calls;
    Queue.clear lane.calls;
    failed := sx :: !failed
  in
  Array.iteri
    (fun sx -> function
      | None -> ()
      | Some lane -> (
          Metrics.Counter.incr flushes;
          match Client.flush lane.conn with
          | Ok () -> ()
          | Error e -> fail sx lane e))
    b;
  Array.iteri
    (fun sx -> function
      | None -> ()
      | Some lane ->
          let rec read () =
            match Queue.peek_opt lane.calls with
            | None -> ()
            | Some call -> (
                match Client.receive lane.conn with
                | Ok r ->
                    call.reply <- Ok r;
                    ignore (Queue.pop lane.calls);
                    read ()
                | Error e -> fail sx lane e)
          in
          read ();
          b.(sx) <- None)
    b;
  List.rev !failed

(* ------------------------------------------------------------------ *)
(* creation                                                            *)

(* Connect to every shard and learn its machine size from one [loads]
   fan-out. *)
let connect_shards ~flushes sockets =
  let b = Array.make (Array.length sockets) None in
  let fail sx e = Error (Printf.sprintf "shard %d: %s: %s" sx sockets.(sx) e) in
  let close_all = List.iter (fun (c, _) -> Client.close c) in
  let rec connect acc sx =
    if sx = Array.length sockets then Ok (List.rev acc)
    else
      match Client.connect_unix ~proto:Client.Binary sockets.(sx) with
      | Ok c -> connect ((c, issue b sx c Protocol.Loads) :: acc) (sx + 1)
      | Error e ->
          close_all acc;
          fail sx e
  in
  match connect [] 0 with
  | Error e -> Error e
  | Ok conns -> (
      ignore (exchange ~flushes b);
      let sized =
        List.mapi
          (fun sx (_, call) ->
            match call.reply with
            | Ok (Protocol.Loads_reply loads) -> Ok (Array.length loads)
            | Ok _ -> fail sx "unexpected loads reply"
            | Error e -> fail sx e)
          conns
      in
      match List.find_opt Result.is_error sized with
      | Some (Error e) ->
          close_all conns;
          Error e
      | _ ->
          Ok
            ( Array.of_list (List.map fst conns),
              Array.of_list (List.map Result.get_ok sized) ))

let create config =
  let m = Array.length config.sockets in
  (* the recorder dumps (and, for routers serving on a Unix socket
     under [dir], the listen socket) need the directory to exist —
     shards the router spawns itself create only their own subdirs *)
  Pmp_server.Server.mkdir_p config.dir;
  match Fed_id.plan ~shards:m with
  | Error e -> Error e
  | Ok plan -> (
      let registry = Metrics.Registry.create () in
      let counter name help = Metrics.Registry.counter registry ~help name in
      let c_requests = counter "fed_requests_total" "requests routed" in
      let c_upstream_batches =
        counter "fed_upstream_batches_total"
          "upstream flushes: one per shard per batch of requests"
      in
      match connect_shards ~flushes:c_upstream_batches config.sockets with
      | Error e -> Error e
      | Ok (clients, shard_sizes) ->
          let offsets =
            Array.init m (fun sx -> Fed_id.leaf_offset ~shard_sizes sx)
          in
          let aggregate = Array.fold_left ( + ) 0 shard_sizes in
          let c_rejects =
            counter "fed_admission_rejects_total"
              "submits rejected by router-level admission"
          in
          let c_markdowns =
            counter "fed_markdowns_total" "shards marked down"
          in
          let c_readmitted =
            counter "fed_readmitted_total"
              "queued tasks re-admitted to healthy shards after a mark-down"
          in
          let c_rebalanced =
            counter "fed_rebalanced_total" "tasks migrated between shards"
          in
          let c_rebalanced_bytes =
            counter "fed_rebalanced_bytes_total" "migration bytes moved"
          in
          let c_audit_failures =
            counter "fed_audit_failures_total"
              "rebalance audits that found inconsistent shard accounting"
          in
          let g_connections =
            Metrics.Registry.gauge registry
              ~help:"open client connections holding a tenant slot"
              "fed_connections"
          in
          let shard_labels sx = [ ("shard", string_of_int sx) ] in
          let ups =
            Array.init m (fun sx ->
                Metrics.Registry.gauge registry ~labels:(shard_labels sx)
                  ~help:"1 when the shard is serving" "fed_shard_up")
          in
          let loadsg =
            Array.init m (fun sx ->
                Metrics.Registry.gauge registry ~labels:(shard_labels sx)
                  ~help:"summary max PE load of the shard" "fed_shard_load")
          in
          let routed =
            Array.init m (fun sx ->
                Metrics.Registry.counter registry ~labels:(shard_labels sx)
                  ~help:"submits routed to the shard" "fed_shard_routed_total")
          in
          let shardv =
            Array.init m (fun sx ->
                Metrics.Gauge.set ups.(sx) 1.0;
                {
                  socket = config.sockets.(sx);
                  size = shard_sizes.(sx);
                  client = Some clients.(sx);
                  g_up = ups.(sx);
                  g_load = loadsg.(sx);
                  c_routed = routed.(sx);
                })
          in
          let now = Unix.gettimeofday () in
          Ok
            {
              config;
              plan;
              shardv;
              shard_sizes;
              offsets;
              aggregate;
              quota_pes =
                Option.map
                  (fun q -> int_of_float (q *. float_of_int aggregate))
                  config.tenant_quota;
              index =
                Fed_index.create ~shard_sizes
                  ~capacities:(Array.make m None);
              ledger = Hashtbl.create 1024;
              conn_tenants = [];
              next_tenant = 0;
              tenant_used = Hashtbl.create 16;
              registry;
              c_requests;
              c_upstream_batches;
              c_rejects;
              c_markdowns;
              c_readmitted;
              c_rebalanced;
              c_rebalanced_bytes;
              c_audit_failures;
              g_connections;
              recorder = Recorder.create config.recorder_size;
              t0 = now;
              last_poll = now;
              last_probe = now;
              last_rebalance = now;
              dump_requested = false;
              reader = Frame.reader ();
              scratch = Buffer.create 256;
              pipe =
                {
                  lanes = Array.make m None;
                  slots = Queue.create ();
                  finishing = Hashtbl.create 16;
                  submits = 0;
                };
            })

(* ------------------------------------------------------------------ *)
(* mark-down and failover                                              *)

let used t tenant = try Hashtbl.find t.tenant_used tenant with Not_found -> 0

let add_used t tenant delta =
  Hashtbl.replace t.tenant_used tenant (used t tenant + delta)

let note_event t =
  Recorder.record t.recorder ~kind:Recorder.kind_event ~op:0 ~tenant:0 ~size:0
    ~seq:0 ~dur_ns:0 ~ts_us:0 ~ok:false

let new_batch t : batch = Array.make (shards t) None
let exchange t b = exchange ~flushes:t.c_upstream_batches b

let issue_to t b sx req =
  match t.shardv.(sx).client with
  | Some c -> issue b sx c req
  | None -> { reply = Error "shard down" }

(* Pick a submit's shard and queue it there, noting the placement in
   the index up front so later picks in the same batch see it. *)
let issue_submit t b ~size =
  match Fed_index.pick t.index ~size with
  | None -> None
  | Some sx ->
      Fed_index.note_submit t.index sx ~size;
      Some (sx, issue_to t b sx (Protocol.Submit size))

(* Once the shard has answered (or failed): only a placement keeps the
   optimistic load. *)
let settle_submit t sx ~size = function
  | Ok (Protocol.Placed _) -> ()
  | Ok _ | Error _ -> Fed_index.note_finish t.index sx ~size

let rec mark_down t sx =
  match t.shardv.(sx).client with
  | Some c ->
      Client.close c;
      t.shardv.(sx).client <- None;
      Fed_index.set_up t.index sx false;
      Metrics.Gauge.set t.shardv.(sx).g_up 0.0;
      Metrics.Counter.incr t.c_markdowns;
      note_event t;
      readmit_queued t sx
  | None -> ()

(* A queued task on a dead shard is pure backlog the federation can
   still serve: re-admit it to a healthy shard under the same
   federated id. At-least-once: the dead shard's WAL also remembers
   it, so its recovery may revive an orphan copy the ledger no longer
   points at. *)
and readmit_queued t sx =
  let queued =
    Hashtbl.fold
      (fun gid e acc ->
        if e.e_shard = sx && e.e_queued then (gid, e) :: acc else acc)
      t.ledger []
    |> List.sort compare
  in
  List.iter
    (fun (_gid, e) ->
      match route_submit t ~size:e.e_size with
      | Ok (sx', (Protocol.Placed (local', _) | Protocol.Queued local' as r)) ->
          e.e_shard <- sx';
          e.e_local <- local';
          e.e_queued <- (match r with Protocol.Queued _ -> true | _ -> false);
          Metrics.Counter.incr t.shardv.(sx').c_routed;
          Metrics.Counter.incr t.c_readmitted
      | Ok _ | Error _ -> ()
      (* stays pointed at the dead shard; resolves again if a probe
         brings the shard back *))
    queued

(* Route one submit as a batch of its own, failing over: a shard that
   dies mid-request is marked down (which re-admits its queued
   backlog) and the pick is retried against the survivors. *)
and route_submit t ~size =
  let rec attempt tries =
    if tries <= 0 then Error "no shard available"
    else
      let b = new_batch t in
      match issue_submit t b ~size with
      | None -> Error (Printf.sprintf "no shard can host size %d" size)
      | Some (sx, call) -> (
          List.iter (mark_down t) (exchange t b);
          settle_submit t sx ~size call.reply;
          match call.reply with
          | Ok resp -> Ok (sx, resp)
          | Error _ -> attempt (tries - 1))
  in
  attempt (shards t)

(* A batch of one. *)
let rpc t sx req =
  let b = new_batch t in
  let call = issue_to t b sx req in
  List.iter (mark_down t) (exchange t b);
  call.reply

(* The same request to every up shard in one batch; the replies come
   back by shard, [None] where the shard was down or failed. *)
let broadcast t req =
  let b = new_batch t in
  let calls =
    Array.init (shards t) (fun sx ->
        if shard_up t sx then Some (issue_to t b sx req) else None)
  in
  List.iter (mark_down t) (exchange t b);
  Array.map
    (function Some { reply = Ok r } -> Some r | Some _ | None -> None)
    calls

(* ------------------------------------------------------------------ *)
(* per-task requests: issue, then complete                             *)

let globalize t sx p =
  { p with Protocol.base = p.Protocol.base + t.offsets.(sx) }

let globalize_state t sx = function
  | Protocol.Active p -> Protocol.Active (globalize t sx p)
  | (Protocol.Queued_task | Protocol.Unknown) as st -> st

let unexpected = Protocol.Error "unexpected shard reply"

(* A shard's answer to a client's submit: record the task in the ledger
   under its federated id. Admission was charged to the tenant at issue
   time; a refusal gives it back. *)
let submitted t ~tenant ~size sx resp =
  let admit local ~queued =
    let gid = Fed_id.global_id t.plan ~shard:sx local in
    Hashtbl.replace t.ledger gid
      {
        e_shard = sx;
        e_local = local;
        e_size = size;
        e_tenant = tenant;
        e_queued = queued;
      };
    Metrics.Counter.incr t.shardv.(sx).c_routed;
    gid
  in
  match resp with
  | Protocol.Placed (local, p) ->
      (Protocol.Placed (admit local ~queued:false, globalize t sx p), Some sx)
  | Protocol.Queued local ->
      (Protocol.Queued (admit local ~queued:true), Some sx)
  | resp ->
      add_used t tenant (-size);
      ((match resp with Protocol.Error _ -> resp | _ -> unexpected), Some sx)

let reject t e =
  Metrics.Counter.incr t.c_rejects;
  (Protocol.Error e, None)

(* The issue phase of one per-task request: answer it now, or queue it
   upstream with the index and tenant accounting updated as if it had
   already succeeded. *)
let issue_request t ~tenant s =
  let answer (resp, served) =
    s.resp <- resp;
    s.served <- served
  in
  let down e =
    answer (Protocol.Error (Printf.sprintf "shard %d down" e.e_shard), None)
  in
  let p = t.pipe in
  match s.req with
  | Protocol.Submit size -> (
      let over_quota =
        match t.quota_pes with
        | Some q -> size > 0 && used t tenant + size > q
        | None -> false
      in
      if over_quota then answer (reject t "tenant admission quota exceeded")
      else
        match issue_submit t p.lanes ~size with
        | None ->
            answer (reject t (Printf.sprintf "no shard can host size %d" size))
        | Some (sx, call) ->
            add_used t tenant size;
            p.submits <- p.submits + 1;
            s.wait <- Submit_on { sx; size; call })
  | Protocol.Finish gid -> (
      match Hashtbl.find_opt t.ledger gid with
      | None -> answer (Protocol.Error "unknown or finished task", None)
      | Some e when not (shard_up t e.e_shard) -> down e
      | Some e ->
          let freed = min e.e_size (used t e.e_tenant) in
          add_used t e.e_tenant (-freed);
          if not e.e_queued then
            Fed_index.note_finish t.index e.e_shard ~size:e.e_size;
          Hashtbl.replace p.finishing gid ();
          let call = issue_to t p.lanes e.e_shard (Protocol.Finish e.e_local) in
          s.wait <- Finish_on { gid; e; freed; call })
  | Protocol.Query gid -> (
      match Hashtbl.find_opt t.ledger gid with
      | None -> answer (Protocol.State (gid, Protocol.Unknown), None)
      | Some e when not (shard_up t e.e_shard) -> down e
      | Some e ->
          let call = issue_to t p.lanes e.e_shard (Protocol.Query e.e_local) in
          s.wait <- Query_on { gid; e; call })
  | _ -> invalid_arg "Router.issue_request: not a per-task request"

(* The completion of one request whose shard answered: apply the reply,
   or undo the optimistic update. A submit whose shard failed keeps
   waiting — it fails over once the shard is marked down. *)
let settle t ~tenant s =
  let answer (resp, served) =
    s.resp <- resp;
    s.served <- served;
    s.wait <- Answered
  in
  match s.wait with
  | Answered -> ()
  | Submit_on { sx; size; call } -> (
      settle_submit t sx ~size call.reply;
      match call.reply with
      | Ok resp -> answer (submitted t ~tenant ~size sx resp)
      | Error _ -> ())
  | Finish_on { gid; e; freed; call } -> (
      match call.reply with
      | Ok Protocol.Finished ->
          Hashtbl.remove t.ledger gid;
          answer (Protocol.Finished, Some e.e_shard)
      | reply ->
          add_used t e.e_tenant freed;
          if not e.e_queued then
            Fed_index.note_submit t.index e.e_shard ~size:e.e_size;
          answer
            (match reply with
            | Ok (Protocol.Error _ as err) -> (err, Some e.e_shard)
            | Ok _ -> (unexpected, Some e.e_shard)
            | Error err -> (Protocol.Error ("shard failure: " ^ err), None)))
  | Query_on { gid; e; call } ->
      answer
        (match call.reply with
        | Ok (Protocol.State (_, st)) ->
            ( Protocol.State (gid, globalize_state t e.e_shard st),
              Some e.e_shard )
        | Ok (Protocol.Error _ as err) -> (err, Some e.e_shard)
        | Ok _ -> (unexpected, Some e.e_shard)
        | Error err -> (Protocol.Error ("shard failure: " ^ err), None))

(* ------------------------------------------------------------------ *)
(* fan-out requests                                                    *)

let dispatch t req =
  match req with
  | Protocol.Submit _ | Protocol.Finish _ | Protocol.Query _ ->
      invalid_arg "Router.dispatch: per-task requests are pipelined"
  | Protocol.Stats -> (
      let replies = broadcast t Protocol.Stats in
      match
        List.filter_map
          (function Some (Protocol.Stats_reply s) -> Some s | _ -> None)
          (Array.to_list replies)
      with
      | [] -> (Protocol.Error "no shard up", false)
      | stats ->
          ( Protocol.Stats_reply
              (Cluster.merge_stats ~machine_size:t.aggregate stats),
            false ))
  | Protocol.Loads ->
      let replies = broadcast t Protocol.Loads in
      let part sx = function
        | Some (Protocol.Loads_reply l) when Array.length l = t.shard_sizes.(sx)
          ->
            l
        | _ -> Array.make t.shard_sizes.(sx) 0
      in
      ( Protocol.Loads_reply
          (Array.concat (Array.to_list (Array.mapi part replies))),
        false )
  | Protocol.Metrics ->
      Array.iteri
        (fun sx s ->
          Metrics.Gauge.set s.g_load (float_of_int (Fed_index.load t.index sx));
          Metrics.Gauge.set s.g_up (if shard_up t sx then 1.0 else 0.0))
        t.shardv;
      Metrics.Gauge.set t.g_connections
        (float_of_int (List.length t.conn_tenants));
      let router_dump = Metrics.prometheus t.registry in
      let shard_dumps =
        List.filter_map
          (function Some (Protocol.Metrics_reply txt) -> Some txt | _ -> None)
          (Array.to_list (broadcast t Protocol.Metrics))
      in
      ( Protocol.Metrics_reply
          (router_dump ^ Metrics.merge_prometheus shard_dumps),
        false )
  | Protocol.Snapshot ->
      ( Protocol.Error "snapshots are per-shard; connect to a shard directly",
        false )
  | Protocol.Ping -> (Protocol.Pong, false)
  | Protocol.Health ->
      let any_up =
        Array.exists (fun s -> s.client <> None) t.shardv
      in
      ( Protocol.Health_reply
          {
            Protocol.ready = any_up;
            uptime_ms =
              int_of_float ((Unix.gettimeofday () -. t.t0) *. 1000.0);
            seq = 0;
            recovered_ops = 0;
          },
        false )
  | Protocol.Shutdown ->
      if t.config.shutdown_shards then ignore (broadcast t Protocol.Shutdown);
      (Protocol.Bye, true)

(* ------------------------------------------------------------------ *)
(* periodic work                                                       *)

let poll t =
  Array.iteri
    (fun sx -> function
      | Some (Protocol.Stats_reply s) ->
          Fed_index.observe t.index sx ~max_load:s.Cluster.max_load
            ~active_size:s.Cluster.active_size;
          Metrics.Gauge.set t.shardv.(sx).g_load
            (float_of_int (Fed_index.load t.index sx))
      | _ -> ())
    (broadcast t Protocol.Stats)

(* Reconnect every down shard that answers a health probe as ready, and
   refresh its summary right away: the recovered shard still carries
   its durable active tasks. All probes share one batch. *)
let probe t =
  let b = new_batch t in
  let fresh =
    Array.init (shards t) (fun sx ->
        if shard_up t sx then None
        else
          match
            Client.connect_unix ~proto:Client.Binary t.shardv.(sx).socket
          with
          | Error _ -> None
          | Ok c ->
              let health = issue b sx c Protocol.Health in
              Some (c, health, issue b sx c Protocol.Stats))
  in
  ignore (exchange t b);
  Array.iteri
    (fun sx -> function
      | None -> ()
      | Some (c, health, stats) -> (
          match (health.reply, stats.reply) with
          | ( Ok (Protocol.Health_reply { Protocol.ready = true; _ }),
              Ok (Protocol.Stats_reply s) ) ->
              t.shardv.(sx).client <- Some c;
              Fed_index.set_up t.index sx true;
              Metrics.Gauge.set t.shardv.(sx).g_up 1.0;
              Fed_index.observe t.index sx ~max_load:s.Cluster.max_load
                ~active_size:s.Cluster.active_size
          | _ -> Client.close c))
    fresh

(* Consistency audit after a rebalance round: each shard's own
   accounting must still balance (sum of PE loads = active size, max
   of PE loads = reported max). The full conformance oracle runs
   inside each shard at recovery; this is the cheap online check the
   router can make from outside — [stats] and [loads] to every audited
   shard in one batch. *)
let audit t sxs =
  let b = new_batch t in
  let calls =
    List.filter_map
      (fun sx ->
        if shard_up t sx then
          Some (issue_to t b sx Protocol.Stats, issue_to t b sx Protocol.Loads)
        else None)
      sxs
  in
  List.iter (mark_down t) (exchange t b);
  List.iter
    (fun (stats, loads) ->
      match (stats.reply, loads.reply) with
      | Ok (Protocol.Stats_reply s), Ok (Protocol.Loads_reply loads) ->
          let sum = Array.fold_left ( + ) 0 loads in
          let mx = Array.fold_left max 0 loads in
          if sum <> s.Cluster.active_size || mx <> s.Cluster.max_load then begin
            Metrics.Counter.incr t.c_audit_failures;
            note_event t
          end
      | _ -> ())
    calls

let rebalance_round t config =
  let m = shards t in
  let loads = Array.init m (fun sx -> Fed_index.load t.index sx) in
  let up = Array.init m (fun sx -> shard_up t sx) in
  let tasks sx =
    Hashtbl.fold
      (fun gid e acc ->
        if e.e_shard = sx then
          { Rebalance.gid; size = e.e_size; queued = e.e_queued } :: acc
        else acc)
      t.ledger []
    |> List.sort (fun a b -> compare a.Rebalance.gid b.Rebalance.gid)
  in
  let moves =
    Rebalance.plan config ~loads ~up ~shard_sizes:t.shard_sizes ~tasks
  in
  let touched = Array.make m false in
  List.iter
    (fun (mv : Rebalance.move) ->
      match Hashtbl.find_opt t.ledger mv.task.gid with
      | None -> ()
      | Some e -> (
          (* replay on the destination first, then drain the source,
             so an acknowledged task always has at least one home *)
          match rpc t mv.dst (Protocol.Submit e.e_size) with
          | Ok (Protocol.Placed (local', _) | Protocol.Queued local') as r -> (
              let queued' =
                match r with Ok (Protocol.Queued _) -> true | _ -> false
              in
              match rpc t mv.src (Protocol.Finish e.e_local) with
              | Ok Protocol.Finished ->
                  if not e.e_queued then
                    Fed_index.note_finish t.index mv.src ~size:e.e_size;
                  if not queued' then
                    Fed_index.note_submit t.index mv.dst ~size:e.e_size;
                  e.e_shard <- mv.dst;
                  e.e_local <- local';
                  e.e_queued <- queued';
                  Metrics.Counter.incr t.c_rebalanced;
                  Metrics.Counter.inc t.c_rebalanced_bytes
                    (Rebalance.move_bytes config mv);
                  touched.(mv.src) <- true;
                  touched.(mv.dst) <- true
              | Ok _ | Error _ ->
                  (* drain refused or source died: undo the replay *)
                  ignore (rpc t mv.dst (Protocol.Finish local')))
          | Ok _ | Error _ -> ()))
    moves;
  audit t (List.filter (fun sx -> touched.(sx)) (List.init m Fun.id))

let tick t =
  if t.dump_requested then begin
    t.dump_requested <- false;
    ignore (dump_recorder t)
  end;
  let now = Unix.gettimeofday () in
  if now -. t.last_poll >= t.config.poll_interval then begin
    t.last_poll <- now;
    poll t
  end;
  if now -. t.last_probe >= t.config.probe_interval then begin
    t.last_probe <- now;
    probe t
  end;
  (match t.config.rebalance with
  | Some config when now -. t.last_rebalance >= t.config.rebalance_interval ->
      t.last_rebalance <- now;
      rebalance_round t config
  | _ -> ());
  Float.max 0.05 (Float.min t.config.poll_interval t.config.probe_interval)

(* ------------------------------------------------------------------ *)
(* connection handling                                                 *)

let tenant_of_conn t inbuf =
  match List.assq_opt inbuf t.conn_tenants with
  | Some id -> id
  | None ->
      let id = t.next_tenant in
      t.next_tenant <- id + 1;
      t.conn_tenants <- (inbuf, id) :: t.conn_tenants;
      id

let forget_conn t inbuf =
  t.conn_tenants <- List.filter (fun (b, _) -> b != inbuf) t.conn_tenants

let reply t out ~binary ~rid ~shard resp =
  if binary then begin
    Buffer.clear t.scratch;
    (match rid with
    | Some rid -> Protocol.response_payload_rid t.scratch ~rid ?shard resp
    | None -> Protocol.response_payload t.scratch resp);
    Frame.add out t.scratch
  end
  else Frame.add_line out (Protocol.encode_response ?rid ?shard resp)

let respond t out ~tenant ~binary ~rid ~served req resp =
  Recorder.record t.recorder ~kind:Recorder.kind_request
    ~op:(Protocol.opcode req) ~tenant
    ~size:(match req with Protocol.Submit s -> s | _ -> 0)
    ~seq:0 ~dur_ns:0 ~ts_us:0
    ~ok:(match resp with Protocol.Error _ -> false | _ -> true);
  (* the shard tag rides the rid echo: only attributed responses
     carry it *)
  let shard = if rid = None then None else served in
  reply t out ~binary ~rid ~shard resp

(* The completion phase: flush each touched shard once, read its
   replies in order, apply them, then answer the client in its own
   order. A shard that failed mid-batch is marked down only after the
   replies that did arrive are applied (so re-admission sees them);
   its unanswered submits then fail over through the normal pick. *)
let complete t ~tenant out =
  let p = t.pipe in
  if not (Queue.is_empty p.slots) then begin
    let failed = exchange t p.lanes in
    Queue.iter (settle t ~tenant) p.slots;
    List.iter (mark_down t) failed;
    Queue.iter
      (fun s ->
        (match s.wait with
        | Submit_on { size; _ } -> (
            s.wait <- Answered;
            let resp, served =
              match route_submit t ~size with
              | Ok (sx, resp) -> submitted t ~tenant ~size sx resp
              | Error e ->
                  add_used t tenant (-size);
                  reject t e
            in
            s.resp <- resp;
            s.served <- served)
        | Answered | Finish_on _ | Query_on _ -> ());
        respond t out ~tenant ~binary:s.binary ~rid:s.rid ~served:s.served
          s.req s.resp)
      p.slots;
    Queue.clear p.slots;
    Hashtbl.reset p.finishing;
    p.submits <- 0
  end

(* A request that must not join the batch in flight: it names a task
   whose finish is already in flight, or one the ledger does not know
   yet while submits are in flight (a client guessing the id a submit
   will get). Serial order decides these, so the batch is cut first. *)
let overtakes t = function
  | Protocol.Finish gid | Protocol.Query gid ->
      Hashtbl.mem t.pipe.finishing gid
      || (t.pipe.submits > 0 && not (Hashtbl.mem t.ledger gid))
  | _ -> false

(* The next request off the front of [inbuf], in either encoding.
   Refusals follow pmpd's rules ({!Frame.read}), so the requests
   pipelined behind a refused frame are still answered. *)
let next_request t inbuf =
  let r = t.reader in
  match Frame.read r inbuf with
  | Frame.Incomplete -> `Incomplete
  | Frame.Frame -> (
      let payload = Frame.payload r inbuf in
      match
        Protocol.decode_request_payload_rid payload ~pos:0
          ~limit:(String.length payload)
      with
      | Error e -> `Bad (true, e)
      | Ok (req, rid) -> `Request (true, rid, req))
  | Frame.Line -> (
      match Protocol.decode_request_rid (Frame.payload r inbuf) with
      | Error e -> `Bad (false, e)
      | Ok (req, rid) -> `Request (false, rid, req))
  | Frame.Refused_frame -> `Bad (true, r.Frame.refusal)
  | Frame.Refused_line -> `Bad (false, r.Frame.refusal)

let handle_conn t inbuf out ~budget =
  let tenant = tenant_of_conn t inbuf in
  let consumed = ref 0 in
  let stop = ref false in
  let continue = ref true in
  while !continue && (not !stop) && !consumed < budget
        && not (Netbuf.is_empty inbuf) do
    match next_request t inbuf with
    | `Incomplete -> continue := false
    | `Bad (binary, e) ->
        incr consumed;
        complete t ~tenant out;
        reply t out ~binary ~rid:None ~shard:None (Protocol.Error e)
    | `Request (binary, rid, req) -> (
        incr consumed;
        Metrics.Counter.incr t.c_requests;
        match req with
        | Protocol.Submit _ | Protocol.Finish _ | Protocol.Query _ ->
            if overtakes t req then complete t ~tenant out;
            let s =
              {
                binary;
                rid;
                req;
                resp = Protocol.Error "no reply";
                served = None;
                wait = Answered;
              }
            in
            issue_request t ~tenant s;
            Queue.push s t.pipe.slots
        | _ ->
            complete t ~tenant out;
            let resp, halt = dispatch t req in
            respond t out ~tenant ~binary ~rid ~served:None req resp;
            stop := halt)
  done;
  complete t ~tenant out;
  if !stop then `Stop !consumed else `Handled !consumed

let serve t ~listeners =
  match
    Loop.run
      ~on_usr1:(fun () -> t.dump_requested <- true)
      ~on_drop:(forget_conn t)
      ~tick:(fun () -> tick t)
      ~listeners
      ~handle:(fun inbuf out ~budget -> handle_conn t inbuf out ~budget)
      ()
  with
  | () -> close t
  | exception e ->
      (try ignore (dump_recorder t) with _ -> ());
      close t;
      raise e
