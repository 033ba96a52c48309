(* Daemon processes: spawn the built pmp binary, wait until it answers
   [health], read its peak memory, stop it and reap it. Every child is
   registered, and an exit on any path kills and waits for whatever is
   still running. *)

let children : (int, unit) Hashtbl.t = Hashtbl.create 8

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> Hashtbl.remove children pid
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error _ -> Hashtbl.remove children pid

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let kill_all () =
  List.iter kill (Hashtbl.fold (fun pid () acc -> pid :: acc) children [])

let () = at_exit kill_all

let spawn ~pmp ~log args =
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid = Unix.create_process pmp (Array.of_list (pmp :: args)) Unix.stdin fd fd in
  Unix.close fd;
  Hashtbl.replace children pid ();
  pid

let last_line path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> (
      match List.rev (String.split_on_char '\n' (String.trim text)) with
      | l :: _ -> l
      | [] -> "")
  | exception Sys_error _ -> ""

(* Poll [socket] until the daemon answers [health] with ready, and keep
   that connection. Fails if the process exits first. *)
let await_ready ~pid ~socket ~log =
  let t0 = Clock.now_ns () in
  let rec poll () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        Hashtbl.remove children pid;
        Conn.fail "daemon exited during start-up: %s" (last_line log));
    let ready =
      if not (Sys.file_exists socket) then None
      else
        match Conn.connect socket with
        | Error _ -> None
        | Ok c -> (
            match Conn.request c Pmp_server.Protocol.Health with
            | Pmp_server.Protocol.Health_reply { ready = true; _ } -> Some c
            | _ | (exception Conn.Failed _) ->
                Conn.close c;
                None)
    in
    match ready with
    | Some c -> c
    | None ->
        if Clock.since_s t0 > 120.0 then Conn.fail "daemon not ready after 120 s";
        Unix.sleepf 0.0002;
        poll ()
  in
  poll ()

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let rss_peak_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' text)
  | exception Sys_error _ -> 0.0

(* Nanoseconds a live process has spent on a CPU, summed over its
   threads (the first field of each thread's schedstat). Time spent
   waiting for the disk, a peer or a CPU is not counted. *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  let on_cpu tid =
    let path = Printf.sprintf "%s/%s/schedstat" dir tid in
    match In_channel.with_open_text path In_channel.input_all with
    | text -> int_of_string (List.hd (String.split_on_char ' ' text))
    | exception Sys_error _ -> 0 (* the thread has just exited *)
  in
  match Sys.readdir dir with
  | tids -> Array.fold_left (fun acc tid -> acc + on_cpu tid) 0 tids
  | exception Sys_error e -> Conn.fail "cannot read the CPU time of pid %d: %s" pid e

(* Graceful stop over the protocol; SIGKILL if the daemon does not say
   goodbye. Either way the process is reaped. *)
let stop pid conn =
  (match Conn.request ~timeout:10.0 conn Pmp_server.Protocol.Shutdown with
  | Pmp_server.Protocol.Bye -> ()
  | _ | (exception Conn.Failed _) -> (
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
  Conn.close conn;
  reap pid

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(* Bytes of regular files under [path]: the daemon's durable state. *)
let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + dir_bytes (Filename.concat path e))
        0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0
  | exception Unix.Unix_error _ -> 0
