(* Service session: run pmpd in-process on a Unix-domain socket,
   replay a generated workload through the wire protocol like an
   external client would, then crash the daemon mid-stream and show
   recovery picking up exactly where the acknowledged history ended.

     dune exec examples/service_session.exe *)

module Sm = Pmp_prng.Splitmix64
module Event = Pmp_workload.Event
module Task = Pmp_workload.Task
module Cluster = Pmp_cluster.Cluster
module Protocol = Pmp_server.Protocol
module Server = Pmp_server.Server
module Client = Pmp_server.Client

let machine_size = 64

(* The daemon assigns its own ids (0, 1, 2, ...), so a replayed trace
   must map its task ids to the server's. *)
let replay client sequence =
  let ids = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match ev with
      | Event.Arrive task -> begin
          match Client.request client (Protocol.Submit task.Task.size) with
          | Ok (Protocol.Placed (id, p)) ->
              Hashtbl.replace ids task.Task.id id;
              Printf.printf "  task %2d -> placed at [%d..%d) copy %d\n" id
                p.Protocol.base
                (p.Protocol.base + p.Protocol.size)
                p.Protocol.copy
          | Ok (Protocol.Queued id) ->
              Hashtbl.replace ids task.Task.id id;
              Printf.printf "  task %2d -> queued\n" id
          | Ok r -> Printf.printf "  ?? %s\n" (Protocol.render_response r)
          | Error e -> Printf.printf "  !! %s\n" e
        end
      | Event.Depart id -> begin
          match Hashtbl.find_opt ids id with
          | None -> ()
          | Some sid -> ignore (Client.request client (Protocol.Finish sid))
        end)
    (Pmp_workload.Sequence.to_list sequence)

let print_stats client =
  match Client.request client Protocol.Stats with
  | Ok (Protocol.Stats_reply st) ->
      Printf.printf
        "  submitted %d, completed %d, active %d (size %d), load %d (peak %d, \
         L* %d)\n"
        st.Cluster.submitted st.Cluster.completed st.Cluster.active_now
        st.Cluster.active_size st.Cluster.max_load st.Cluster.peak_load
        st.Cluster.optimal_now
  | _ -> print_endline "  stats unavailable"

let serve_in_domain config path =
  let server = Result.get_ok (Server.create config) in
  let listener = Server.listen_unix path in
  ( server,
    Domain.spawn (fun () ->
        match Server.serve server ~listeners:[ listener ] with
        | () -> `Clean
        | exception Server.Crash -> `Crashed) )

let () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "pmpd-example" in
  (* a fresh state directory each run *)
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  let path = Filename.concat dir "pmp.sock" in
  let config =
    {
      (Server.default_config ~machine_size
         ~policy:(Cluster.Periodic (Pmp_core.Realloc.make_budget 2))
         ~dir)
      with
      Server.snapshot_every = 16;
      crash_after = Some 40;
    }
  in

  Printf.printf
    "pmpd on %d PEs, policy periodic(d=2), snapshots every 16 mutations,\n\
     crash injected after mutation 40.\n\n"
    machine_size;

  let sequence =
    Pmp_workload.Generators.bursty (Sm.create 11) ~machine_size ~sessions:3
      ~session_tasks:12 ~max_order:4
  in

  print_endline "--- session 1: replaying a bursty workload over the socket";
  let _, domain = serve_in_domain config path in
  let client = Result.get_ok (Client.connect_unix path) in
  replay client sequence;
  (match Domain.join domain with
  | `Crashed -> print_endline "\n  ... daemon crashed mid-stream (injected)"
  | `Clean -> print_endline "\n  ... daemon exited cleanly?!");
  Client.close client;

  print_endline "\n--- session 2: restart against the same state directory";
  let server, domain =
    serve_in_domain { config with Server.crash_after = None } path
  in
  Printf.printf "  recovered %d WAL records on top of the last snapshot\n"
    (Server.recovered_ops server);
  let client = Result.get_ok (Client.connect_unix path) in
  print_stats client;

  print_endline "\n--- telemetry registry snapshot";
  (match Client.request client Protocol.Metrics with
  | Ok (Protocol.Metrics_reply dump) -> print_string dump
  | _ -> print_endline "  metrics unavailable");

  ignore (Client.request client Protocol.Shutdown);
  ignore (Domain.join domain);
  Client.close client;
  print_endline "\nEvery acknowledged mutation survived the crash: the latest\n\
                 snapshot (the live allocator state) is imported and checked\n\
                 structurally, the WAL tail is replayed on top of it under\n\
                 the oracle, and the recovered state must round-trip before\n\
                 the daemon accepts its first request."
