type t = {
  fd : Unix.file_descr;
  inbuf : Netbuf.t;  (** response bytes read, not yet decoded *)
  out : Netbuf.t;  (** queued request bytes not yet written *)
  scratch : Buffer.t;  (** one request payload being framed *)
  reader : Frame.reader;
}

let of_fd fd =
  {
    fd;
    inbuf = Netbuf.create 4096;
    out = Netbuf.create 256;
    scratch = Buffer.create 32;
    reader = Frame.reader ();
  }

let connect sockaddr =
  (* a server that died mid-conversation must read as an [Error], not
     a fatal SIGPIPE on our next send *)
  Loop.ignore_sigpipe ();
  let domain = Unix.domain_of_sockaddr sockaddr in
  let fd = Unix.socket domain SOCK_STREAM 0 in
  match Unix.connect fd sockaddr with
  | () -> Ok (of_fd fd)
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)

let connect_unix path = connect (Unix.ADDR_UNIX path)

let connect_tcp ~host ~port () =
  match Unix.inet_addr_of_string host with
  | addr -> connect (Unix.ADDR_INET (addr, port))
  | exception Failure _ -> Error (Printf.sprintf "bad host %S" host)

let queue t ?rid req =
  Buffer.clear t.scratch;
  (match rid with
  | None -> Protocol.request_payload t.scratch req
  | Some rid -> Protocol.request_payload_rid t.scratch ~rid req);
  Frame.add t.out t.scratch

(* The socket blocks, so each drain writes what the kernel takes; a
   signal that interrupts it is retried. *)
let rec flush t =
  if Netbuf.is_empty t.out then Ok ()
  else
    match Netbuf.drain t.out t.fd with
    | _ -> flush t
    | exception Unix.Unix_error (EINTR, _, _) -> flush t
    | exception Unix.Unix_error (e, _, _) ->
        Netbuf.clear t.out;
        Error (Unix.error_message e)

let send t ?rid req =
  queue t ?rid req;
  flush t

(* Responses are found as pmpd finds requests; a refused frame is
   consumed whole, so the responses behind it still decode. *)
let rec receive_attr t =
  let r = t.reader in
  match Frame.read r t.inbuf with
  | Frame.Frame ->
      let payload = Frame.payload r t.inbuf in
      Protocol.decode_response_payload_attr payload ~pos:0
        ~limit:(String.length payload)
  | Frame.Refused -> Error r.Frame.refusal
  | Frame.Incomplete -> (
      (* room for 4 KiB, not the default 64: replies are mostly a few
         bytes, and a 64 KiB buffer per upstream connection measurably
         slowed the router's start-up; a big reply still grows it *)
      match Netbuf.refill ~chunk:4096 t.inbuf t.fd with
      | 0 -> Error "connection closed"
      | _ -> receive_attr t
      | exception Unix.Unix_error (EINTR, _, _) -> receive_attr t
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

let receive t = Result.map (fun (r, _rid, _shard) -> r) (receive_attr t)

let request t req =
  match send t req with Ok () -> receive t | Error _ as e -> e

let metrics t =
  match request t Protocol.Metrics with
  | Ok (Protocol.Metrics_reply dump) -> Ok dump
  | Ok r -> Error ("unexpected response: " ^ Protocol.render_response r)
  | Error e -> Error e

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
