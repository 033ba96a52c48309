(* The wire's message boundaries. Every reader of a request or response
   stream (pmpd, the router, the client, the whole-frame decoders in
   Protocol) comes through [read], so the refusal rules and their texts
   live here only. *)

type message = Incomplete | Frame | Refused

type reader = {
  mutable pos : int;
  mutable limit : int;
  mutable refusal : string;
  cur : Wire.cursor;
}

let reader () = { pos = 0; limit = 0; refusal = ""; cur = { Wire.pos = 0 } }

let not_a_frame =
  "not a binary frame: pmp 1.19 and earlier also read JSON lines, which \
   this version refuses; use pmp client, or the frames of TUTORIAL.md \
   section 12"

let refuse r text =
  r.refusal <- text;
  Refused

(* Past a garbage length or a message that opens no frame, no later
   frame boundary can be found, so everything buffered goes. *)
let drop r nb text =
  r.pos <- 0;
  r.limit <- Netbuf.length nb;
  Netbuf.clear nb;
  refuse r text

let read_frame r nb =
  let avail = Netbuf.length nb in
  if avail < 3 then Incomplete
  else begin
    let b = Netbuf.bytes nb and off = Netbuf.offset nb in
    r.cur.Wire.pos <- off + 2;
    match Wire.read_varint b r.cur (off + avail) with
    | exception Wire.Corrupt _ ->
        if avail - 2 >= Wire.max_varint_bytes then drop r nb "malformed frame"
        else Incomplete
    | len ->
        let pos = r.cur.Wire.pos in
        if len < 0 || len > Wire.max_payload then drop r nb "malformed frame"
        else if pos + len > off + avail then Incomplete
        else begin
          (* the length scanned: the frame is consumed whatever its
             version or payload, so the stream stays in step *)
          r.pos <- pos;
          r.limit <- pos + len;
          Netbuf.consume nb (pos + len - off);
          let version = Char.code (Bytes.unsafe_get b (off + 1)) in
          if version <> Wire.version then
            refuse r (Printf.sprintf "unsupported wire version %d" version)
          else if len = 0 then refuse r "empty frame"
          else Frame
        end
  end

let read r nb =
  if Netbuf.is_empty nb then Incomplete
  else if Netbuf.get_byte nb 0 <> Wire.request_magic then drop r nb not_a_frame
  else read_frame r nb

let payload r nb = Bytes.sub_string (Netbuf.bytes nb) r.pos (r.limit - r.pos)

let add out payload =
  Netbuf.add_char out (Char.chr Wire.request_magic);
  Netbuf.add_char out (Char.chr Wire.version);
  Netbuf.add_varint out (Buffer.length payload);
  Netbuf.add_buffer out payload

let add_to_buffer buf payload =
  Buffer.add_char buf (Char.chr Wire.request_magic);
  Buffer.add_char buf (Char.chr Wire.version);
  Wire.add_varint buf (Buffer.length payload);
  Buffer.add_buffer buf payload
