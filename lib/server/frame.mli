(** Where one message ends in a byte stream, and how to frame one.

    pmpd, the federation router and the {!Client} all find their
    messages through {!read} and frame them through {!add}, so the one
    encoding and the refusals below have one owner. A message is a
    binary frame: {!Wire.request_magic}, {!Wire.version}, a varint
    payload length of at most {!Wire.max_payload}, then the payload.

    {!read} refuses four things, each with a fixed text:
    - a frame of another version, [unsupported wire version N], and a
      frame with an empty payload, [empty frame]. The frame is consumed
      whole, so the messages behind it are still found.
    - a garbage length (negative, over {!Wire.max_payload}, or a varint
      that does not end), [malformed frame]. Nothing after it can be
      found again, so the buffered input is dropped.
    - a message whose first byte is not {!Wire.request_magic}, such as
      the JSON line an older client sends: a text that opens [not a
      binary frame] and says what to use instead. No frame boundary can
      be found in it, so the buffered input is dropped too.

    Reading a well-formed frame allocates nothing: {!read} returns a
    constant and leaves the payload's span in the caller's
    {!type-reader}. *)

type message =
  | Incomplete  (** no whole message at the front yet; nothing consumed *)
  | Frame  (** a frame; the reader spans its payload *)
  | Refused  (** a refused message; answer its [refusal] *)

type reader = private {
  mutable pos : int;
  mutable limit : int;
      (** after [Frame]: the payload spans [[pos, limit)] of the
          buffer's {!Netbuf.bytes}, valid until the next write into the
          buffer. After a refusal, [limit - pos] is the size refused. *)
  mutable refusal : string;  (** the text of the last refusal *)
  cur : Wire.cursor;  (** scratch for the length varint *)
}

val reader : unit -> reader
(** A reader holds only what the last {!read} found, so one can serve
    any number of buffers: pmpd and the router each share one across
    their connections. *)

val read : reader -> Netbuf.t -> message
(** Sort the front of the buffer and consume the message found there
    (every result but [Incomplete] consumes something). *)

val payload : reader -> Netbuf.t -> string
(** A copy of the span the last {!read} left. *)

val add : Netbuf.t -> Buffer.t -> unit
(** [add out payload] appends one frame wrapping [payload]. *)

val add_to_buffer : Buffer.t -> Buffer.t -> unit
(** {!add} into a [Buffer.t]. *)
