module Client = Pmp_server.Client
module Loop = Pmp_server.Loop
module Netbuf = Pmp_server.Netbuf
module Protocol = Pmp_server.Protocol
module Frame = Pmp_server.Frame
module Recorder = Pmp_server.Recorder
module Metrics = Pmp_telemetry.Metrics
module Server = Pmp_server.Server

let ( let* ) = Result.bind

type config = {
  sockets : string array;
  tenant_quota : float option;
  poll_interval : float;
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
    rebalance = None;
    rebalance_interval = 1.0;
    shutdown_shards = false;
    dir;
    recorder_size = 4096;
  }

type shard = {
  socket : string;
  mutable client : Client.t option;
  g_up : Metrics.Gauge.t;
  g_load : Metrics.Gauge.t;
  c_routed : Metrics.Counter.t;
}

(* One upstream request awaiting its reply. *)
type call = { mutable reply : (Protocol.response, string) result }

(* The requests queued on one shard's connection in the current batch,
   oldest first: a shard answers strictly in order, so replies need no
   correlation. *)
type lane = { conn : Client.t; calls : call Queue.t }

(* A batch: one lane per touched shard, flushed once by {!exchange}. *)
type batch = lane option array

(* A client request of the current batch, in client order; [wait] is
   its shard call until the reply is settled. *)
type slot = {
  rid : int option;
  req : Protocol.request;
  mutable resp : Protocol.response;
  mutable served : int option;
  mutable wait : (Route.pending * call) option;
}

type t = {
  config : config;
  route : Route.t;
  shardv : shard array;
  shard_sizes : int array;
  mutable conn_tenants : (Netbuf.t * int) list;
      (** open connections only, keyed physically *)
  mutable next_tenant : int;
  registry : Metrics.Registry.t;
  c_requests : Metrics.Counter.t;
  c_upstream_batches : Metrics.Counter.t;
  c_markdowns : Metrics.Counter.t;
  totals : (Metrics.Counter.t * (Route.counts -> int)) list;
      (** [Route]'s totals, caught up on each dump *)
  g_connections : Metrics.Gauge.t;
  recorder : Recorder.t;
  ratios : Metrics.Ratio_window.t;
      (** the polls' load ratios, over the whole federation's L* *)
  g_ratio : Metrics.Gauge.t;  (** their p99, as each dump reports it *)
  c_refused : Metrics.Counter.t;
      (** messages refused here, added to the shards' [pmpd_errors_total] *)
  t0 : float;
  mutable last_poll : float;
  mutable last_rebalance : float;
  mutable dump_requested : bool;
  reader : Frame.reader;
  scratch : Buffer.t;
  lanes : batch;  (** the client batch's upstream calls *)
  slots : slot Queue.t;
}

let shards t = Array.length t.shardv
let aggregate_size t = Array.fold_left ( + ) 0 t.shard_sizes
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
(* the upstream batch: past the handshake, how requests reach shards   *)

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
let exchange t (b : batch) =
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
          Metrics.Counter.incr t.c_upstream_batches;
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

(* Connect to every shard and learn its machine size from its [loads]. *)
let connect_shards sockets =
  let rec connect acc sx =
    if sx = Array.length sockets then Ok (List.rev acc)
    else
      let fail e =
        List.iter (fun (c, _) -> Client.close c) acc;
        Error (Printf.sprintf "shard %d: %s: %s" sx sockets.(sx) e)
      in
      match Client.connect_unix sockets.(sx) with
      | Error e -> fail e
      | Ok c -> (
          match Client.request c Protocol.Loads with
          | Ok (Protocol.Loads_reply l) ->
              connect ((c, Array.length l) :: acc) (sx + 1)
          | r ->
              Client.close c;
              fail
                (match r with Error e -> e | Ok _ -> "unexpected loads reply"))
  in
  connect [] 0

let create config =
  let m = Array.length config.sockets in
  (* the recorder dumps (and, for routers serving on a Unix socket
     under [dir], the listen socket) need the directory to exist —
     shards the router spawns itself create only their own subdirs *)
  Server.mkdir_p config.dir;
  let* conns = connect_shards config.sockets in
  let shard_sizes = Array.of_list (List.map snd conns) in
  let aggregate = Array.fold_left ( + ) 0 shard_sizes in
  (* fails only without shards, when there is no connection to close *)
  let* route =
    Route.create ~shard_sizes ~capacities:(Array.make m None)
      ~quota:
        (Option.map
           (fun q -> int_of_float (q *. float_of_int aggregate))
           config.tenant_quota)
  in
  let registry = Metrics.Registry.create () in
  let counter name help = Metrics.Registry.counter registry ~help name in
  let c_requests = counter "fed_requests_total" "requests routed" in
  let c_upstream_batches =
    counter "fed_upstream_batches_total"
      "upstream flushes: one per shard per batch of requests"
  in
  let c_markdowns = counter "fed_markdowns_total" "shards marked down" in
  let totals =
    List.map
      (fun (name, help, get) -> (counter name help, get))
      [
        ( "fed_admission_rejects_total",
          "submits rejected by router-level admission",
          fun (n : Route.counts) -> n.rejects );
        ( "fed_readmitted_total",
          "queued tasks re-admitted to healthy shards after a mark-down",
          fun n -> n.readmitted );
        ( "fed_rebalanced_total",
          "tasks migrated between shards",
          fun n -> n.rebalanced );
        ( "fed_rebalanced_bytes_total",
          "migration bytes moved",
          fun n -> n.rebalanced_bytes );
        ( "fed_audit_failures_total",
          "rebalance audits that found inconsistent shard accounting",
          fun n -> n.audit_failures );
      ]
  in
  let g_connections =
    Metrics.Registry.gauge registry
      ~help:"open client connections holding a tenant slot" "fed_connections"
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
    Array.of_list
      (List.mapi
         (fun sx (c, _) ->
           Metrics.Gauge.set ups.(sx) 1.0;
           {
             socket = config.sockets.(sx);
             client = Some c;
             g_up = ups.(sx);
             g_load = loadsg.(sx);
             c_routed = routed.(sx);
           })
         conns)
  in
  let now = Unix.gettimeofday () in
  Ok
    {
      config;
      route;
      shardv;
      shard_sizes;
      conn_tenants = [];
      next_tenant = 0;
      registry;
      c_requests;
      c_upstream_batches;
      c_markdowns;
      totals;
      g_connections;
      recorder = Recorder.create config.recorder_size;
      ratios = Metrics.Ratio_window.make ();
      g_ratio = Metrics.Gauge.make ();
      c_refused = Metrics.Counter.make ();
      t0 = now;
      last_poll = now;
      last_rebalance = now;
      dump_requested = false;
      reader = Frame.reader ();
      scratch = Buffer.create 256;
      lanes = Array.make m None;
      slots = Queue.create ();
    }

(* ------------------------------------------------------------------ *)
(* mark-down and failover                                              *)

let note_event t =
  Recorder.record t.recorder ~kind:Recorder.kind_event ~op:0 ~tenant:0 ~size:0
    ~seq:0 ~dur_ns:0 ~ts_us:0 ~ok:false

let new_batch t : batch = Array.make (shards t) None

let issue_to t b sx req =
  match t.shardv.(sx).client with
  | Some c -> issue b sx c req
  | None -> { reply = Error "shard down" }

(* Close a failed shard's connection and let [Route] re-admit its
   queued backlog through [rpc], which may mark down more shards. *)
let rec mark_down t sx =
  match t.shardv.(sx).client with
  | Some c ->
      Client.close c;
      t.shardv.(sx).client <- None;
      Metrics.Counter.incr t.c_markdowns;
      note_event t;
      Route.mark_down t.route ~call:(rpc t) sx
  | None -> ()

(* A batch of one: the synchronous [Route.call]. *)
and rpc t sx req =
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

(* Each shard's [pmpd_p99_load_ratio] divides by its own L*, so their
   max reads 1 while the router piles load onto one shard. The merged
   dump carries the rolling p99 of the polls' federation-wide ratios,
   nearest-rank as pmpd takes its own, and its high-water mark, in
   their place. Its [pmpd_errors_total] also counts the messages the
   router refused itself, which no shard saw. *)
let with_load_ratio t dump =
  Metrics.Gauge.set t.g_ratio (Metrics.Ratio_window.p99 t.ratios);
  let sample name v = Printf.sprintf "%s %.9g" name v in
  String.split_on_char '\n' dump
  |> List.map (fun line ->
         match String.split_on_char ' ' line with
         | [ ("pmpd_p99_load_ratio" as name); _ ] ->
             sample name (Metrics.Gauge.value t.g_ratio)
         | [ ("pmpd_p99_load_ratio_max" as name); _ ] ->
             sample name (Metrics.Gauge.max_seen t.g_ratio)
         | [ ("pmpd_errors_total" as name); n ] ->
             sample name
               (float_of_string n
               +. float_of_int (Metrics.Counter.value t.c_refused))
         | _ -> line)
  |> String.concat "\n"

(* ------------------------------------------------------------------ *)
(* fan-out requests                                                    *)

let dispatch t req =
  match req with
  | Protocol.Submit _ | Protocol.Finish _ | Protocol.Query _ ->
      invalid_arg "Router.dispatch: per-task requests are pipelined"
  | Protocol.Stats | Protocol.Loads ->
      (Server.merge_parts ~sizes:t.shard_sizes req (broadcast t req), false)
  | Protocol.Metrics ->
      let sync c n = Metrics.Counter.inc c (n - Metrics.Counter.value c) in
      let n = Route.counts t.route in
      List.iter (fun (c, get) -> sync c (get n)) t.totals;
      Array.iteri
        (fun sx s ->
          sync s.c_routed n.routed.(sx);
          Metrics.Gauge.set s.g_load (float_of_int (Route.load t.route sx));
          Metrics.Gauge.set s.g_up (if shard_up t sx then 1.0 else 0.0))
        t.shardv;
      Metrics.Gauge.set t.g_connections
        (float_of_int (List.length t.conn_tenants));
      let router_dump = Metrics.prometheus t.registry in
      ( (match Server.merge_parts ~sizes:t.shard_sizes req (broadcast t req) with
        | Protocol.Metrics_reply shards ->
            Protocol.Metrics_reply (router_dump ^ with_load_ratio t shards)
        | r -> r),
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
  let replies = broadcast t Protocol.Stats in
  Array.iteri
    (fun sx -> function
      | Some (Protocol.Stats_reply s) ->
          Route.observe t.route sx s;
          Metrics.Gauge.set t.shardv.(sx).g_load
            (float_of_int (Route.load t.route sx))
      | _ -> ())
    replies;
  match Server.merge_parts ~sizes:t.shard_sizes Protocol.Stats replies with
  | Protocol.Stats_reply s ->
      Metrics.Ratio_window.push t.ratios ~max_load:s.max_load
        ~optimal:s.optimal_now
  | _ -> ()

(* Reconnect every down shard that answers a health probe as ready, and
   refresh its summary right away: the recovered shard still carries
   its durable active tasks. All probes share one batch. *)
let probe t =
  let b = new_batch t in
  let fresh =
    Array.init (shards t) (fun sx ->
        if shard_up t sx then None
        else
          match Client.connect_unix t.shardv.(sx).socket with
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
              Route.mark_up t.route sx s
          | _ -> Client.close c))
    fresh

let tick t =
  if t.dump_requested then begin
    t.dump_requested <- false;
    ignore (dump_recorder t)
  end;
  let now = Unix.gettimeofday () in
  if now -. t.last_poll >= t.config.poll_interval then begin
    t.last_poll <- now;
    poll t;
    probe t
  end;
  (match t.config.rebalance with
  | Some config when now -. t.last_rebalance >= t.config.rebalance_interval ->
      t.last_rebalance <- now;
      let failed = (Route.counts t.route).audit_failures in
      Route.rebalance t.route ~call:(rpc t) config;
      for _ = failed + 1 to (Route.counts t.route).audit_failures do
        note_event t
      done
  | _ -> ());
  Float.max 0.05 t.config.poll_interval

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

let reply t out ~rid ~shard resp =
  Buffer.clear t.scratch;
  (match rid with
  | Some rid -> Protocol.response_payload_rid t.scratch ~rid ?shard resp
  | None -> Protocol.response_payload t.scratch resp);
  Frame.add out t.scratch

let respond t out ~tenant ~rid ~served req resp =
  Recorder.record t.recorder ~kind:Recorder.kind_request
    ~op:(Protocol.opcode req) ~tenant
    ~size:(match req with Protocol.Submit s -> s | _ -> 0)
    ~seq:0 ~dur_ns:0 ~ts_us:0
    ~ok:(match resp with Protocol.Error _ -> false | _ -> true);
  (* the shard tag rides the rid echo: only attributed responses
     carry it *)
  let shard = if rid = None then None else served in
  reply t out ~rid ~shard resp

(* A message refused before it named a request: one failed request of
   op 0, as pmpd counts it. *)
let refuse t out ~tenant e =
  Metrics.Counter.incr t.c_refused;
  Recorder.record t.recorder ~kind:Recorder.kind_request ~op:0 ~tenant
    ~size:0 ~seq:0 ~dur_ns:0 ~ts_us:0 ~ok:false;
  reply t out ~rid:None ~shard:None (Protocol.Error e)

(* The completion phase: flush each touched shard once, read its
   replies in order, apply them, then answer the client in its own
   order. A shard that failed mid-batch is marked down only after the
   replies that did arrive are applied (so re-admission sees them);
   its unanswered submits then fail over through the normal pick. *)
let complete t ~tenant out =
  if not (Queue.is_empty t.slots) then begin
    let failed = exchange t t.lanes in
    let answer s (resp, served) =
      s.resp <- resp;
      s.served <- served;
      s.wait <- None
    in
    Queue.iter
      (fun s ->
        Option.iter
          (fun (pending, call) ->
            Option.iter (answer s) (Route.settle t.route pending call.reply))
          s.wait)
      t.slots;
    List.iter (mark_down t) failed;
    Queue.iter
      (fun s ->
        Option.iter
          (fun (pending, _) ->
            answer s (Route.failover t.route ~call:(rpc t) pending))
          s.wait;
        respond t out ~tenant ~rid:s.rid ~served:s.served s.req s.resp)
      t.slots;
    Queue.clear t.slots
  end

(* The next request off the front of [inbuf]. Refusals follow pmpd's
   rules ({!Frame.read}), so the requests pipelined behind a refused
   frame are still answered. *)
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
      | Error e -> `Bad e
      | Ok (req, rid) -> `Request (rid, req))
  | Frame.Refused -> `Bad r.Frame.refusal

let handle_conn t inbuf out ~budget =
  let tenant = tenant_of_conn t inbuf in
  let consumed = ref 0 in
  let stop = ref false in
  let continue = ref true in
  while !continue && (not !stop) && !consumed < budget
        && not (Netbuf.is_empty inbuf) do
    match next_request t inbuf with
    | `Incomplete -> continue := false
    | `Bad e ->
        incr consumed;
        complete t ~tenant out;
        refuse t out ~tenant e
    | `Request (rid, req) -> (
        incr consumed;
        Metrics.Counter.incr t.c_requests;
        match req with
        | Protocol.Submit _ | Protocol.Finish _ | Protocol.Query _ ->
            if Route.overtakes t.route req then complete t ~tenant out;
            let s =
              match Route.issue t.route ~tenant req with
              | Route.Answer (resp, served) ->
                  { rid; req; resp; served; wait = None }
              | Route.Call (sx, up, pending) ->
                  {
                    rid;
                    req;
                    resp = Protocol.Error "no reply";
                    served = None;
                    wait = Some (pending, issue_to t t.lanes sx up);
                  }
            in
            Queue.push s t.slots
        | _ ->
            complete t ~tenant out;
            let resp, halt = dispatch t req in
            respond t out ~tenant ~rid ~served:None req resp;
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
