(** Where one message ends in a byte stream, and how to frame one.

    pmpd, the federation router and the {!Client} all find their
    messages through {!read} and frame them through {!add} and
    {!add_line}, so the two encodings and the refusals below have one
    owner. A message is either
    - a binary frame: {!Wire.request_magic}, {!Wire.version}, a varint
      payload length of at most {!Wire.max_payload}, then the payload;
    - or a JSON line: any other first byte, up to a ['\n'].

    The first byte tells them apart, so both encodings can interleave on
    one connection. {!read} refuses four things, each with a fixed text:
    - a frame of another version, [unsupported wire version N], and a
      frame with an empty payload, [empty frame]. The frame is consumed
      whole, so the messages behind it are still found.
    - a garbage length (negative, over {!Wire.max_payload}, or a varint
      that does not end), [malformed frame]. Nothing after it can be
      found again, so the buffered input is dropped.
    - a line still unterminated after {!Wire.max_payload} bytes,
      [request line longer than N bytes]. The buffered input is dropped.

    Reading a well-formed binary frame allocates nothing: {!read}
    returns a constant and leaves the payload's span in the caller's
    {!type-reader}. *)

type message =
  | Incomplete  (** no whole message at the front yet; nothing consumed *)
  | Frame  (** a binary frame; the reader spans its payload *)
  | Line  (** a JSON line; the reader spans it without its ['\n'] *)
  | Refused_frame  (** a refused frame; answer its [refusal] in binary *)
  | Refused_line  (** an over-long line; answer its [refusal] in JSON *)

type reader = private {
  mutable pos : int;
  mutable limit : int;
      (** after [Frame] or [Line]: the message spans [[pos, limit)] of the
          buffer's {!Netbuf.bytes}, valid until the next write into the
          buffer. After a refusal, [limit - pos] is the size refused. *)
  mutable refusal : string;  (** the text of the last refusal *)
  cur : Wire.cursor;  (** scratch for the length varint *)
}

val reader : unit -> reader
(** A reader holds only what the last {!read} found, so one can serve
    any number of buffers: pmpd and the router each share one across
    their connections. *)

val starts_frame : Netbuf.t -> bool
(** Whether the front byte is {!Wire.request_magic}: {!read} then looks
    for a binary frame, and otherwise for a JSON line. *)

val read : reader -> Netbuf.t -> message
(** Sort the front of the buffer and consume the message found there
    (every result but [Incomplete] consumes something). *)

val payload : reader -> Netbuf.t -> string
(** A copy of the span the last {!read} left. *)

val add : Netbuf.t -> Buffer.t -> unit
(** [add out payload] appends one frame wrapping [payload]. *)

val add_to_buffer : Buffer.t -> Buffer.t -> unit
(** {!add} into a [Buffer.t]. *)

val add_line : Netbuf.t -> string -> unit
(** Append one JSON line: the text and its ['\n']. *)
