(* Per-layer costs, measured from outside: each function replays a
   workload's stream through one layer's public functions, in process,
   and times the calls. Every layer gets one span in the Chrome trace
   (thread 1). Per-call timings subtract the timer's own cost. *)

module Cluster = Pmp_cluster.Cluster
module Protocol = Pmp_server.Protocol
module Netbuf = Pmp_server.Netbuf
module Server = Pmp_server.Server
module Wal = Pmp_server.Wal
module Snapshot = Pmp_server.Snapshot
module Load_index = Pmp_index.Load_index
module Fed_index = Pmp_federation.Fed_index
module Router = Pmp_federation.Router

let metric = Report.metric

(* ns per call from a sum of [calls] individually timed calls *)
let per_call total calls =
  if calls = 0 then 0.0
  else
    Float.max 0.0
      ((float_of_int total /. float_of_int calls) -. Lazy.force Clock.pair_overhead_ns)

let per total n = if n = 0 then 0.0 else float_of_int total /. float_of_int n
let layer name f = Report.with_span ~cat:"layer" ~tid:1 name f

let new_cluster machine_size =
  match Cluster.create ~machine_size ~policy:Cluster.Greedy () with
  | Ok c -> c
  | Error e -> failwith e

let apply c (st : Stream.t) i =
  if st.kind.(i) = Stream.k_submit then ignore (Cluster.submit c ~size:st.size.(i))
  else if st.kind.(i) = Stream.k_finish then ignore (Cluster.finish c st.tid.(i))

(* Cluster bookkeeping: submit and finish as the stream issues them,
   then placement lookups of every live task and stats calls on the
   final state. *)
let cluster (st : Stream.t) =
  layer "cluster" @@ fun () ->
  let c = new_cluster st.machine_size in
  for i = 0 to st.prefill - 1 do
    apply c st i
  done;
  let sub = ref 0 and subs = ref 0 and fin = ref 0 and fins = ref 0 in
  let w0 = Gc.minor_words () in
  for i = st.prefill to Stream.length st - 1 do
    let k = st.kind.(i) in
    if k = Stream.k_submit then begin
      let t = Clock.now_ns () in
      ignore (Cluster.submit c ~size:st.size.(i));
      sub := !sub + (Clock.now_ns () - t);
      incr subs
    end
    else if k = Stream.k_finish then begin
      let t = Clock.now_ns () in
      ignore (Cluster.finish c st.tid.(i));
      fin := !fin + (Clock.now_ns () - t);
      incr fins
    end
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int (max 1 (!subs + !fins)) in
  let live = List.filter (fun id -> Cluster.placement c id <> None) (List.init st.tasks Fun.id) in
  let rounds = max 1 (200_000 / max 1 (List.length live)) in
  let t = Clock.now_ns () in
  for _ = 1 to rounds do
    List.iter (fun id -> ignore (Sys.opaque_identity (Cluster.placement c id))) live
  done;
  let placement = per (Clock.now_ns () - t) (rounds * List.length live) in
  let t = Clock.now_ns () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Cluster.stats c))
  done;
  let stats = per (Clock.now_ns () - t) 10_000 in
  [
    metric "cluster.submit_ns" "ns" (per_call !sub !subs) ~samples:!subs;
    metric "cluster.finish_ns" "ns" (per_call !fin !fins) ~samples:!fins;
    metric "cluster.placement_ns" "ns" placement ~samples:(rounds * List.length live);
    metric "cluster.stats_ns" "ns" stats ~samples:10_000;
    metric "cluster.words_per_op" "words" words ~samples:(!subs + !fins);
  ]

(* The greedy choice rule on the load index alone: pick the least
   loaded window of the task's order, add the task there; remove it on
   finish. *)
let load_index (st : Stream.t) =
  layer "load_index" @@ fun () ->
  let m = Pmp_machine.Machine.create st.machine_size in
  let idx = Load_index.create m in
  let home = Array.make st.tasks (Pmp_machine.Submachine.root m) in
  let pick = ref 0 and picks = ref 0 and add = ref 0 and adds = ref 0 in
  for i = 0 to Stream.length st - 1 do
    let timed = i >= st.prefill in
    let k = st.kind.(i) in
    if k = Stream.k_submit then begin
      let order = Pmp_util.Pow2.ilog2 st.size.(i) in
      let t0 = Clock.now_ns () in
      let _, sub = Load_index.min_load_subtree idx ~order in
      let t1 = Clock.now_ns () in
      Load_index.range_add idx sub 1;
      let t2 = Clock.now_ns () in
      home.(st.tid.(i)) <- sub;
      if timed then begin
        pick := !pick + (t1 - t0);
        add := !add + (t2 - t1);
        incr picks;
        incr adds
      end
    end
    else if k = Stream.k_finish then begin
      let t0 = Clock.now_ns () in
      Load_index.range_add idx home.(st.tid.(i)) (-1);
      if timed then begin
        add := !add + (Clock.now_ns () - t0);
        incr adds
      end
    end
  done;
  [
    metric "load_index.pick_ns" "ns" (per_call !pick !picks) ~samples:!picks;
    metric "load_index.add_ns" "ns" (per_call !add !adds) ~samples:!adds;
  ]

(* Frames for every op, daemon ids = stream ids (a single fresh
   daemon), cut into pipeline batches of [batch]. *)
let batch = 32

let request_batches (st : Stream.t) ~lo ~hi =
  let nb = Netbuf.create 4096 and ids = Array.init st.tasks Fun.id in
  List.init
    ((hi - lo + batch - 1) / batch)
    (fun b ->
      Netbuf.clear nb;
      for i = lo + (b * batch) to min hi (lo + ((b + 1) * batch)) - 1 do
        Conn.add_op nb st ~ids i
      done;
      Netbuf.sub_string nb ~off:0 ~len:(Netbuf.length nb))

let response_frame r =
  let p = Buffer.create 32 and f = Buffer.create 40 in
  Protocol.response_payload p r;
  Protocol.add_frame f p;
  Buffer.contents f

(* Decode every request payload; encode every expected response. *)
let protocol (st : Stream.t) expected =
  layer "protocol" @@ fun () ->
  let lo = st.prefill and n = Stream.length st in
  let nb = Netbuf.create 64 and ids = Array.init st.tasks Fun.id in
  let payloads =
    Array.init (n - lo) (fun j ->
        Netbuf.clear nb;
        Conn.add_op nb st ~ids (lo + j);
        (* skip magic, version and the one-byte length of small frames *)
        Netbuf.sub_string nb ~off:3 ~len:(Netbuf.length nb - 3))
  in
  let t = Clock.now_ns () in
  Array.iter
    (fun p ->
      match Protocol.decode_request_payload p ~pos:0 ~limit:(String.length p) with
      | Ok _ -> ()
      | Error e -> failwith ("protocol layer: " ^ e))
    payloads;
  let decode = per (Clock.now_ns () - t) (n - lo) in
  let buf = Buffer.create 64 in
  let t = Clock.now_ns () in
  for i = lo to n - 1 do
    Buffer.clear buf;
    Protocol.response_payload buf expected.(i)
  done;
  let encode = per (Clock.now_ns () - t) (n - lo) in
  [
    metric "protocol.decode_ns" "ns" decode ~samples:(n - lo);
    metric "protocol.encode_ns" "ns" encode ~samples:(n - lo);
  ]

let server_config ~dir ~machine_size ~snapshot_every =
  { (Server.default_config ~machine_size ~policy:Cluster.Greedy ~dir) with snapshot_every }

let create_server config =
  match Server.create config with Ok s -> s | Error e -> failwith ("server: " ^ e)

(* The daemon without its socket: batches of frames through
   [Server.handle_conn] and the group [commit], as the event loop runs
   them; ops [[prefill, hi)] are timed, the end-to-end throughput
   phase. *)
let dispatch ~dir ~snapshot_every (st : Stream.t) ~hi =
  layer "server.dispatch" @@ fun () ->
  let s = create_server (server_config ~dir ~machine_size:st.machine_size ~snapshot_every) in
  let inb = Netbuf.create 4096 and out = Netbuf.create 4096 in
  let run batches =
    List.iter
      (fun frames ->
        Netbuf.add_string inb frames;
        while not (Netbuf.is_empty inb) do
          match Server.handle_conn s inb out ~budget:batch with
          | `Handled _ | `Stop _ -> ()
        done;
        Server.commit s;
        Netbuf.clear out)
      batches
  in
  run (request_batches st ~lo:0 ~hi:st.prefill);
  let timed = request_batches st ~lo:st.prefill ~hi in
  let n = hi - st.prefill in
  let w0 = Gc.minor_words () in
  let t = Clock.now_ns () in
  run timed;
  let ns = per (Clock.now_ns () - t) n in
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Server.close s;
  [
    metric "server.dispatch_ns" "ns" ns ~samples:n;
    metric "server.words_per_req" "words" words ~samples:n;
  ]

(* One pipeline batch of request frames out and its response frames
   back over a socketpair, through Netbuf drain/refill. *)
let netbuf (st : Stream.t) expected =
  layer "netbuf" @@ fun () ->
  let lo = st.prefill in
  let hi = min (Stream.length st) (lo + 20_000) in
  let reqs = Array.of_list (request_batches st ~lo ~hi) in
  let resps =
    Array.mapi
      (fun b _ ->
        String.concat ""
          (List.init
             (min batch (hi - lo - (b * batch)))
             (fun j -> response_frame expected.(lo + (b * batch) + j))))
      reqs
  in
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let a_out = Netbuf.create 4096 and a_in = Netbuf.create 4096 in
  let b_out = Netbuf.create 4096 and b_in = Netbuf.create 4096 in
  let send nb fd s =
    Netbuf.add_string nb s;
    while not (Netbuf.is_empty nb) do
      ignore (Netbuf.drain nb fd)
    done
  in
  let recv nb fd len =
    while Netbuf.length nb < len do
      if Netbuf.refill nb fd = 0 then failwith "netbuf layer: socket closed"
    done;
    Netbuf.consume nb len
  in
  let t = Clock.now_ns () in
  Array.iteri
    (fun i req ->
      send a_out a req;
      recv b_in b (String.length req);
      send b_out b resps.(i);
      recv a_in a (String.length resps.(i)))
    reqs;
  let ns = per (Clock.now_ns () - t) (hi - lo) in
  Unix.close a;
  Unix.close b;
  [ metric "netbuf.rtt_ns" "ns" ns ~samples:(hi - lo) ]

(* Log appends in group-commit batches of [batch]: append, the
   write-only commit, and the fsync, each timed on its own. *)
let wal ~dir (st : Stream.t) =
  layer "wal" @@ fun () ->
  let path = Filename.concat dir "wal.log" in
  let w = Wal.open_log ~format:Wal.Binary_records path in
  let app = ref 0 and records = ref 0 and com = ref 0 and fs = ref 0 and batches = ref 0 in
  let i = ref 0 in
  while !i < Stream.length st && !records < 16_384 do
    let t = Clock.now_ns () in
    let pending = ref 0 in
    while !pending < batch && !i < Stream.length st do
      if st.kind.(!i) = Stream.k_submit then begin
        incr records;
        incr pending;
        Wal.append_submit w ~seq:!records ~id:st.tid.(!i) ~size:st.size.(!i)
      end
      else if st.kind.(!i) = Stream.k_finish then begin
        incr records;
        incr pending;
        Wal.append_finish w ~seq:!records ~id:st.tid.(!i)
      end;
      incr i
    done;
    let t1 = Clock.now_ns () in
    ignore (Wal.commit w ~fsync:false);
    let t2 = Clock.now_ns () in
    Wal.sync w;
    let t3 = Clock.now_ns () in
    app := !app + (t1 - t);
    com := !com + (t2 - t1);
    fs := !fs + (t3 - t2);
    incr batches
  done;
  Wal.close w;
  let bytes = (Unix.stat path).Unix.st_size in
  [
    metric "wal.append_ns" "ns" (per !app !records) ~samples:!records;
    metric "wal.commit_ns" "ns" (per !com !batches) ~samples:!batches;
    metric "wal.fsync_ns" "ns" (per !fs !batches) ~samples:!batches;
    metric "wal.bytes_per_mutation" "bytes" (per bytes !records) ~samples:!records;
  ]

(* Capture and save a snapshot of the stream's final state. *)
let snapshot ~dir (st : Stream.t) final =
  layer "snapshot" @@ fun () ->
  let times f =
    Report.median
      (Array.init 3 (fun _ ->
           let t = Clock.now_ns () in
           f ();
           float_of_int (Clock.now_ns () - t)))
  in
  let snap = Snapshot.of_cluster ~seq:st.mutations ~admission_cap:None final in
  let capture = times (fun () -> ignore (Snapshot.of_cluster ~seq:st.mutations ~admission_cap:None final)) in
  let path = ref "" in
  let save = times (fun () -> path := Snapshot.save ~dir snap) in
  [
    metric "snapshot.capture_ns" "ns" capture ~samples:3;
    metric "snapshot.save_ms" "ms" (save /. 1e6) ~samples:3;
    metric "snapshot.bytes" "bytes" (float_of_int (Unix.stat !path).Unix.st_size);
  ]

(* Recovery of daemon state directories left by a run: [Server.create]
   on each (configs in shard order), summed. *)
let recover configs =
  layer "server.recover" @@ fun () ->
  let t = Clock.now_ns () in
  List.iter (fun c -> Server.close (create_server c)) configs;
  [ metric "server.recover_s" "s" (float_of_int (Clock.now_ns () - t) /. 1e9) ]

(* The federation's second-level pick over two half-size shards. *)
let fed_index (st : Stream.t) =
  layer "fed_index" @@ fun () ->
  let half = st.machine_size / 2 in
  let idx = Fed_index.create ~shard_sizes:[| half; half |] ~capacities:[| None; None |] in
  let shard = Array.make st.tasks 0 and size = Array.make st.tasks 0 in
  let pick = ref 0 and picks = ref 0 in
  for i = 0 to Stream.length st - 1 do
    let tid = st.tid.(i) in
    if st.kind.(i) = Stream.k_submit then begin
      let t = Clock.now_ns () in
      let sx = Fed_index.pick idx ~size:st.size.(i) in
      pick := !pick + (Clock.now_ns () - t);
      incr picks;
      let sx = Option.value sx ~default:0 in
      Fed_index.note_submit idx sx ~size:st.size.(i);
      shard.(tid) <- sx;
      size.(tid) <- st.size.(i)
    end
    else if st.kind.(i) = Stream.k_finish then
      Fed_index.note_finish idx shard.(tid) ~size:size.(tid)
  done;
  [ metric "fed_index.pick_ns" "ns" (per_call !pick !picks) ~samples:!picks ]

(* The router in process over live shards: one request per
   [Router.handle_conn] call, timed after the prefill; ids learned from
   its responses. *)
let router ~dir ~sockets (st : Stream.t) =
  layer "router" @@ fun () ->
  let r =
    match Router.create (Router.default_config ~sockets ~dir) with
    | Ok r -> r
    | Error e -> failwith ("router: " ^ e)
  in
  let ids = Array.make st.tasks (-1) in
  let inb = Netbuf.create 256 and out = Netbuf.create 256 in
  let hi = min (Stream.length st - 1) (st.prefill + 4000) in
  let total = ref 0 in
  for i = 0 to hi - 1 do
    Conn.add_op inb st ~ids i;
    let t = Clock.now_ns () in
    (match Router.handle_conn r inb out ~budget:1 with `Handled _ | `Stop _ -> ());
    if i >= st.prefill then total := !total + (Clock.now_ns () - t);
    (match Protocol.decode_response_binary (Netbuf.sub_string out ~off:0 ~len:(Netbuf.length out)) with
    | Ok (Protocol.Placed (gid, _) | Protocol.Queued gid) when st.kind.(i) = Stream.k_submit ->
        ids.(st.tid.(i)) <- gid
    | Ok (Protocol.Error e) -> failwith ("router layer: " ^ e)
    | Ok _ -> ()
    | Error e -> failwith ("router layer: " ^ e));
    Netbuf.clear out
  done;
  Router.close r;
  [ metric "router.handle_ns" "ns" (per_call !total (hi - st.prefill)) ~samples:(hi - st.prefill) ]
