(* The shared service-benchmark driver: a deterministic churn workload
   generator, a closed-loop socket driver with a pipeline window and
   an optional latency histogram, a spawn-a-server-in-a-domain harness
   over a Unix socket in a throwaway directory, and an in-process
   allocation probe for the binary fast path. The regression gate's
   service, multicore and federation probes and [pmp client bench] all
   sit on this module so they measure the same thing. *)

module Cluster = Pmp_cluster.Cluster
module Prng = Pmp_prng.Splitmix64
module Metrics = Pmp_telemetry.Metrics

(* ------------------------------------------------------------------ *)
(* deterministic churn requests                                        *)

type gen = {
  rng : Prng.t;
  mutable live : int array;  (** ids submitted and not yet finished *)
  mutable n_live : int;
  size_exps : int;  (** submit sizes are [2^k], [k < size_exps] *)
}

let make_gen ~seed ~machine_size =
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  {
    rng = Prng.create seed;
    live = Array.make 1024 0;
    n_live = 0;
    size_exps = max 1 (log2 (max 1 (machine_size / 4)) + 1);
  }

let push_live g id =
  if g.n_live = Array.length g.live then begin
    let bigger = Array.make (2 * g.n_live) 0 in
    Array.blit g.live 0 bigger 0 g.n_live;
    g.live <- bigger
  end;
  g.live.(g.n_live) <- id;
  g.n_live <- g.n_live + 1

(* Finishing slightly less often than submitting keeps a lively pool
   without runaway growth (queued tasks finish too — that's a cancel,
   which the server accepts). *)
let next_request g =
  if g.n_live > 0 && Prng.bernoulli g.rng 0.45 then begin
    let i = Prng.int g.rng g.n_live in
    let id = g.live.(i) in
    g.n_live <- g.n_live - 1;
    g.live.(i) <- g.live.(g.n_live);
    Protocol.Finish id
  end
  else Protocol.Submit (1 lsl Prng.int g.rng g.size_exps)

let note_response g = function
  | Protocol.Placed (id, _) | Protocol.Queued id -> push_live g id
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* closed-loop driving                                                 *)

type outcome = {
  requests : int;
  mutations : int;
  errors : int;
  elapsed : float;  (** seconds *)
  by_shard : (int * int) list;
      (** responses per serving shard, sorted by shard id; non-empty
          only against a federation router with rids on *)
}

let ns_per_request o = o.elapsed *. 1e9 /. float_of_int (max 1 o.requests)
let requests_per_sec o = float_of_int o.requests /. Float.max 1e-9 o.elapsed

exception Fail of string

let drive_conn client gen ~requests ~window ~latency ~rids =
  let window = max 1 window in
  let times = Array.make window 0.0 in
  let sent = ref 0
  and recvd = ref 0
  and mutations = ref 0
  and errors = ref 0 in
  let send_one () =
    let req = next_request gen in
    (match req with
    | Protocol.Submit _ | Protocol.Finish _ -> incr mutations
    | _ -> ());
    if latency <> None then times.(!sent mod window) <- Unix.gettimeofday ();
    (match
       if rids then Client.send client ~rid:!sent req
       else Client.send client req
     with
    | Ok () -> ()
    | Error e -> raise (Fail ("send: " ^ e)));
    incr sent
  in
  let shard_counts = Hashtbl.create 8 in
  let recv_one () =
    match Client.receive_attr client with
    | Ok (resp, rid, shard) ->
        (* the server answers strictly in order, so with rids on, the
           echo must be exactly the send index of this slot *)
        if rids && rid <> Some !recvd then
          raise
            (Fail
               (Printf.sprintf "rid mismatch: expected %d, got %s" !recvd
                  (match rid with Some r -> string_of_int r | None -> "none")));
        (match latency with
        | Some h ->
            Metrics.Histogram.observe h
              ((Unix.gettimeofday () -. times.(!recvd mod window)) *. 1e6)
        | None -> ());
        (match shard with
        | Some s ->
            Hashtbl.replace shard_counts s
              (1 + try Hashtbl.find shard_counts s with Not_found -> 0)
        | None -> ());
        note_response gen resp;
        (match resp with Protocol.Error _ -> incr errors | _ -> ());
        incr recvd
    | Error e -> raise (Fail ("receive: " ^ e))
  in
  let t0 = Unix.gettimeofday () in
  match
    while !recvd < requests do
      if !sent < requests && !sent - !recvd < window then send_one ()
      else recv_one ()
    done
  with
  | () ->
      Ok
        {
          requests;
          mutations = !mutations;
          errors = !errors;
          elapsed = Unix.gettimeofday () -. t0;
          by_shard =
            Hashtbl.fold (fun s n acc -> (s, n) :: acc) shard_counts []
            |> List.sort compare;
        }
  | exception Fail e -> Error e

let drive client gen ~requests ~window ?(rids = false) () =
  drive_conn client gen ~requests ~window ~latency:None ~rids

let percentile h p = Metrics.Histogram.quantile h (p /. 100.0)

(* Closed-loop driving over [conns] connections at once — the only way
   to make a sharded server actually run its shards in parallel. Each
   connection gets its own generator (decorrelated seed) and its own
   share of the request budget; the first drives on the calling domain
   and samples [latency], the rest each on a domain of their own.
   Outcomes sum, wall-clock is the slowest connection's. *)
let drive_parallel ~connect ~conns ~requests ~window ~seed ~machine_size
    ?latency ?(rids = false) () =
  let conns = max 1 conns in
  let per = max 1 (requests / conns) in
  let worker ~latency i () =
    match connect () with
    | Error e -> Error ("connect: " ^ e)
    | Ok client ->
        let gen = make_gen ~seed:(seed + (i * 7919)) ~machine_size in
        let r = drive_conn client gen ~requests:per ~window ~latency ~rids in
        Client.close client;
        r
  in
  let others =
    List.init (conns - 1) (fun i ->
        Domain.spawn (worker ~latency:None (i + 1)))
  in
  let first = worker ~latency 0 () in
  let results = first :: List.map Domain.join others in
  let merge_by_shard a b =
    List.fold_left
      (fun acc (s, n) ->
        match List.assoc_opt s acc with
        | Some m -> (s, m + n) :: List.remove_assoc s acc
        | None -> (s, n) :: acc)
      a b
    |> List.sort compare
  in
  List.fold_left
    (fun acc r ->
      match (acc, r) with
      | (Error _ as e), _ | _, (Error _ as e) -> e
      | Ok a, Ok o ->
          Ok
            {
              requests = a.requests + o.requests;
              mutations = a.mutations + o.mutations;
              errors = a.errors + o.errors;
              elapsed = Float.max a.elapsed o.elapsed;
              by_shard = merge_by_shard a.by_shard o.by_shard;
            })
    (Ok
       {
         requests = 0;
         mutations = 0;
         errors = 0;
         elapsed = 0.0;
         by_shard = [];
       })
    results

(* ------------------------------------------------------------------ *)
(* a throwaway local service                                           *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let service_counter = Atomic.make 0

let with_local_service ?(machine_size = 256) ?(fsync_policy = Wal.Group)
    ?(wal_format = Wal.Binary_records) ?(latency_profile = false)
    ?recorder_size ?(domains = 1) f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmp-svc-%d-%d" (Unix.getpid ())
         (Atomic.fetch_and_add service_counter 1))
  in
  rm_rf dir;
  let base = Server.default_config ~machine_size ~policy:Cluster.Greedy ~dir in
  let config =
    {
      base with
      fsync_policy;
      wal_format;
      snapshot_every = 0;
      latency_profile;
      recorder_size =
        (match recorder_size with Some n -> n | None -> base.recorder_size);
      domains;
    }
  in
  let socket = Filename.concat dir "bench.sock" in
  match Server.create config with
  | Error e -> Error ("server: " ^ e)
  | Ok server ->
      let listener = Server.listen_unix socket in
      let domain =
        Domain.spawn (fun () -> Server.serve server ~listeners:[ listener ])
      in
      let shutdown () =
        match Client.connect_unix socket with
        | Ok c ->
            (match Client.request c Protocol.Shutdown with _ -> ());
            Client.close c
        | Error _ -> ()
      in
      let result =
        match f socket with
        | r ->
            shutdown ();
            r
        | exception e ->
            shutdown ();
            Domain.join domain;
            rm_rf dir;
            raise e
      in
      Domain.join domain;
      rm_rf dir;
      result

(* The daemon's metrics dump, over a connection of its own. *)
let metrics_of socket =
  match Client.connect_unix socket with
  | Error e -> Error ("connect: " ^ e)
  | Ok client ->
      let r = Client.metrics client in
      Client.close client;
      Result.map_error (fun e -> "metrics: " ^ e) r

(* One complete benchmark: spin a server with the given WAL policy and
   format, drive the churn workload (seed 0xB00, window 32) through
   [conns] connections, read the daemon's final metrics, shut the
   server down, clean up. *)
let bench ?fsync_policy ?wal_format ?(proto = Client.Binary) ?latency_profile
    ?recorder_size ?domains ?(conns = 1) ~requests () =
  let seed = 0xB00 and machine_size = 256 and window = 32 in
  with_local_service ~machine_size ?fsync_policy ?wal_format ?latency_profile
    ?recorder_size ?domains (fun socket ->
      Result.bind
        (drive_parallel
           ~connect:(fun () -> Client.connect_unix ~proto socket)
           ~conns ~requests ~window ~seed ~machine_size ())
        (fun o -> Result.map (fun dump -> (o, dump)) (metrics_of socket)))

(* ------------------------------------------------------------------ *)
(* allocation probe                                                    *)

(* Minor words per request on the binary fast path, measured
   in-process: frames are encoded into a reused Netbuf, dispatched
   through Server.handle_conn, committed, and the responses discarded
   — no sockets, no strings, no per-request allocation by the harness
   itself. Read-only traffic (query + stats), so the figure isolates
   the dispatch path from the cluster's own mutation bookkeeping. *)
let words_per_request ?(requests = 100_000) () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmp-words-%d-%d" (Unix.getpid ())
         (Atomic.fetch_and_add service_counter 1))
  in
  rm_rf dir;
  let config =
    {
      (Server.default_config ~machine_size:256 ~policy:Cluster.Greedy ~dir) with
      snapshot_every = 0;
    }
  in
  match Server.create config with
  | Error e -> Error ("server: " ^ e)
  | Ok server ->
      let inbuf = Netbuf.create 4096 and out = Netbuf.create 4096 in
      let payload = Buffer.create 32 in
      (* payloads written by hand: a [Protocol.request] value would be
         harness allocation inside the measured loop *)
      let add_query id =
        Buffer.clear payload;
        Buffer.add_char payload '\003';
        Wire.add_varint payload id;
        Frame.add inbuf payload
      in
      let add_stats () =
        Buffer.clear payload;
        Buffer.add_char payload '\004';
        Frame.add inbuf payload
      in
      let batch = 64 in
      let run_batch fill =
        fill ();
        (match Server.handle_conn server inbuf out ~budget:batch with
        | `Handled _ | `Stop _ -> ());
        Server.commit server;
        Netbuf.clear out
      in
      (* a handful of live tasks for the queries to find *)
      let live = 16 in
      run_batch (fun () ->
          for _ = 1 to live do
            Buffer.clear payload;
            Protocol.request_payload payload (Protocol.Submit 1);
            Frame.add inbuf payload
          done);
      let fill_reads base =
        for i = 0 to batch - 1 do
          if i land 7 = 7 then add_stats () else add_query ((base + i) mod live)
        done
      in
      (* warm up so every buffer reaches its steady-state size *)
      for i = 1 to 20 do
        run_batch (fun () -> fill_reads i)
      done;
      let rounds = max 1 (requests / batch) in
      let w0 = Gc.minor_words () in
      for i = 1 to rounds do
        run_batch (fun () -> fill_reads i)
      done;
      let w1 = Gc.minor_words () in
      Server.close server;
      rm_rf dir;
      Ok ((w1 -. w0) /. float_of_int (rounds * batch))
