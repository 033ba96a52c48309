type proto = Json | Binary

let parse_proto s =
  match String.lowercase_ascii (String.trim s) with
  | "json" -> Ok Json
  | "binary" -> Ok Binary
  | s -> Error (Printf.sprintf "unknown protocol %S (want binary|json)" s)

let proto_name = function Json -> "json" | Binary -> "binary"

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable proto : proto;
  pending : Buffer.t;  (** queued request bytes not yet written *)
  scratch : Buffer.t;  (** one binary payload being framed *)
}

let of_fd ?(proto = Json) fd =
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    proto;
    pending = Buffer.create 256;
    scratch = Buffer.create 32;
  }

let connect ?proto sockaddr =
  (* a server that died mid-conversation must read as an [Error], not
     a fatal SIGPIPE on our next send *)
  Loop.ignore_sigpipe ();
  let domain = Unix.domain_of_sockaddr sockaddr in
  let fd = Unix.socket domain SOCK_STREAM 0 in
  match Unix.connect fd sockaddr with
  | () -> Ok (of_fd ?proto fd)
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)

let connect_unix ?proto path = connect ?proto (Unix.ADDR_UNIX path)

let connect_tcp ?proto ~host ~port () =
  match Unix.inet_addr_of_string host with
  | addr -> connect ?proto (Unix.ADDR_INET (addr, port))
  | exception Failure _ -> Error (Printf.sprintf "bad host %S" host)

let proto t = t.proto
let set_proto t proto = t.proto <- proto

let queue t ?rid req =
  match t.proto with
  | Json ->
      Buffer.add_string t.pending (Protocol.encode_request ?rid req);
      Buffer.add_char t.pending '\n'
  | Binary ->
      Buffer.clear t.scratch;
      (match rid with
      | None -> Protocol.request_payload t.scratch req
      | Some rid -> Protocol.request_payload_rid t.scratch ~rid req);
      Protocol.add_frame t.pending t.scratch

let flush t =
  let r =
    match
      Buffer.output_buffer t.oc t.pending;
      Stdlib.flush t.oc
    with
    | () -> Ok ()
    | exception Sys_error e -> Error e
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  Buffer.clear t.pending;
  r

let send t ?rid req =
  queue t ?rid req;
  flush t

let input_varint ic =
  let rec go v shift n =
    if n > Wire.max_varint_bytes then Error "overlong varint"
    else begin
      let c = input_byte ic in
      let v = v lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then Ok v else go v (shift + 7) (n + 1)
    end
  in
  go 0 0 1

(* The encoding of each response is detected from its first byte, like
   the server does for requests — so a connection can switch formats
   mid-stream and both sides stay in step. *)
let receive_attr t =
  match
    let c = input_char t.ic in
    if Char.code c = Wire.request_magic then begin
      let v = input_byte t.ic in
      if v <> Wire.version then
        Error (Printf.sprintf "unsupported wire version %d" v)
      else begin
        match input_varint t.ic with
        | Error e -> Error e
        | Ok len ->
            if len < 0 || len > Wire.max_payload then Error "bad frame length"
            else begin
              let payload = really_input_string t.ic len in
              Protocol.decode_response_payload_attr payload ~pos:0 ~limit:len
            end
      end
    end
    else begin
      let line = input_line t.ic in
      Protocol.decode_response_attr (String.make 1 c ^ line)
    end
  with
  | r -> r
  | exception End_of_file -> Error "connection closed"
  | exception Sys_error e -> Error e
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let receive_with_rid t =
  Result.map (fun (r, rid, _shard) -> (r, rid)) (receive_attr t)

let receive t = Result.map fst (receive_with_rid t)

let request t req =
  match send t req with Ok () -> receive t | Error _ as e -> e

let close t =
  (try Stdlib.flush t.oc with Sys_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()
