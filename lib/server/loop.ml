(* Requests decoded per connection per round, and bytes of queued
   output that pause reading a connection. *)
let max_pending = 64
let max_out = 1 lsl 20

type conn = {
  fd : Unix.file_descr;
  inbuf : Netbuf.t;  (** bytes read, not yet decoded *)
  out : Netbuf.t;  (** response bytes not yet written *)
  mutable eof : bool;  (** peer closed its write side *)
  mutable pending : bool;
      (** the handler stopped at its budget — more complete requests
          may already be buffered, so poll instead of blocking *)
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Writes to a peer that vanished must surface as EPIPE (handled
   per-connection below), not kill the process. *)
let ignore_sigpipe () =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ()

(* SIGUSR1 must have a disposition before the first [select]: a signal
   arriving between loop start and handler installation would otherwise
   kill the process (default action is Term). With no callback we still
   ignore it explicitly for the same reason. *)
let setup_sigusr1 on_usr1 =
  let behaviour =
    match on_usr1 with
    | None -> Sys.Signal_ignore
    | Some f -> Sys.Signal_handle (fun _ -> f ())
  in
  match Sys.signal Sys.sigusr1 behaviour with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ()

let run ?(on_accept = ignore) ?(on_drop = ignore)
    ?(on_batch = ignore) ?(on_commit = ignore) ?on_usr1 ?on_read_io
    ?on_write_io ?(tick = fun () -> -1.0) ?inbox ~listeners ~handle () =
  ignore_sigpipe ();
  setup_sigusr1 on_usr1;
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let stopping = ref false in
  let drop c =
    close_quietly c.fd;
    Hashtbl.remove conns c.fd;
    on_drop c.inbuf
  in
  let pump_reads ready =
    List.iter
      (fun fd ->
        match Hashtbl.find_opt conns fd with
        | None -> ()
        | Some c -> (
            match Netbuf.refill c.inbuf fd with
            | 0 -> c.eof <- true
            | _ -> ()
            | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> drop c
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()))
      ready
  in
  let pump_writes ready =
    List.iter
      (fun fd ->
        match Hashtbl.find_opt conns fd with
        | None -> ()
        | Some c when Netbuf.is_empty c.out -> ()
        | Some c -> (
            match Netbuf.drain c.out fd with
            | _ -> ()
            | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> drop c
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()))
      ready
  in
  (* Decode-and-dispatch straight out of each connection's input
     buffer, up to [max_pending] requests per connection per round;
     responses accumulate in the out buffers but are NOT written yet —
     [on_commit] runs first, so the WAL covering this batch reaches
     the OS (and disk, per policy) before any acknowledgement can
     reach a socket. *)
  let process_batch () =
    let total = ref 0 in
    Hashtbl.iter
      (fun _ c ->
        c.pending <- false;
        if not (Netbuf.is_empty c.inbuf) then begin
          let n =
            match handle c.inbuf c.out ~budget:max_pending with
            | `Handled n -> n
            | `Stop n ->
                stopping := true;
                n
          in
          total := !total + n;
          if n >= max_pending then c.pending <- true
        end)
      conns;
    if !total > 0 then begin
      on_batch !total;
      on_commit ()
    end
  in
  let adopt fd =
    on_accept ();
    Hashtbl.replace conns fd
      {
        fd;
        inbuf = Netbuf.create 256;
        out = Netbuf.create 256;
        eof = false;
        pending = false;
      }
  in
  let inbox_fd = match inbox with Some (fd, _) -> [ fd ] | None -> [] in
  let finally () =
    List.iter close_quietly listeners;
    Hashtbl.iter (fun fd _ -> close_quietly fd) conns
  in
  Fun.protect ~finally (fun () ->
      let listeners_open = ref true in
      let rec go () =
        process_batch ();
        (match inbox with
        | None -> ()
        | Some (_, take) -> (
            match take () with
            | Some fds -> List.iter adopt fds
            | None -> stopping := true));
        if !stopping && !listeners_open then begin
          List.iter close_quietly listeners;
          listeners_open := false
        end;
        (* drop connections that are fully drained and finished *)
        let finished =
          Hashtbl.fold
            (fun _ c acc ->
              if
                Netbuf.is_empty c.out && (not c.pending) && (c.eof || !stopping)
              then c :: acc
              else acc)
            conns []
        in
        List.iter drop finished;
        if !stopping && Hashtbl.length conns = 0 then ()
        else begin
          let pending_work =
            Hashtbl.fold (fun _ c acc -> acc || c.pending) conns false
          in
          let read_fds =
            inbox_fd
            @ (if !listeners_open then listeners else [])
            @ Hashtbl.fold
                (fun fd c acc ->
                  if
                    (not c.eof) && (not !stopping)
                    && Netbuf.length c.out <= max_out
                  then fd :: acc
                  else acc)
                conns []
          in
          let write_fds =
            Hashtbl.fold
              (fun fd c acc ->
                if not (Netbuf.is_empty c.out) then fd :: acc else acc)
              conns []
          in
          if read_fds = [] && write_fds = [] && not pending_work then ()
          else begin
            let timeout =
              if pending_work then 0.0
              else begin
                match tick () with t when t >= 0.0 -> t | _ -> -1.0
              end
            in
            let readable, writable, _ =
              try Unix.select read_fds write_fds [] timeout
              with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
            in
            List.iter
              (fun fd ->
                if List.memq fd listeners then begin
                  match Unix.accept fd with
                  | client, _ ->
                      Unix.set_nonblock client;
                      adopt client
                  | exception Unix.Unix_error _ -> ()
                end)
              readable;
            let conn_readable =
              List.filter
                (fun fd ->
                  not (List.memq fd listeners || List.memq fd inbox_fd))
                readable
            in
            (match on_read_io with
            | None -> pump_reads conn_readable
            | Some f ->
                if conn_readable = [] then ()
                else begin
                  let t0 = Unix.gettimeofday () in
                  pump_reads conn_readable;
                  f (Unix.gettimeofday () -. t0)
                end);
            (match on_write_io with
            | None -> pump_writes writable
            | Some f ->
                if writable = [] then ()
                else begin
                  let t0 = Unix.gettimeofday () in
                  pump_writes writable;
                  f (Unix.gettimeofday () -. t0)
                end);
            go ()
          end
        end
      in
      go ())
