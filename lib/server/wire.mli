(** LEB128 varints and framing constants shared by the binary
    {!Protocol} and the {!Wal} record format.

    A varint carries a full OCaml [int] (the 63-bit two's-complement
    bit pattern, seven bits per byte, most significant chunk last), so
    negative values round-trip in at most {!max_varint_bytes} bytes and
    the common small ids and sizes cost one. *)

exception Corrupt of string
(** Malformed wire data: truncated or overlong varint, bad frame. *)

val request_magic : int
(** First byte of every binary protocol frame (request and response).
    Chosen so it can never open a JSON value — the server autodetects
    the encoding of each request from this byte. *)

val wal_magic : int
(** First byte of every WAL record. Like {!request_magic} it cannot
    open a JSON value, so {!Wal.load} tells a JSON record that an old
    release wrote, which it refuses, from a record. *)

val version : int
(** Wire format version carried in every frame's second byte. *)

val max_payload : int
(** Upper bound on a frame's payload length; a length prefix beyond it
    is treated as corruption rather than a buffer-sizing demand. *)

val max_varint_bytes : int

val add_varint : Buffer.t -> int -> unit

val varint_length : int -> int
(** Encoded size of [n] in bytes, without encoding it. *)

val get_varint : Bytes.t -> int -> int -> int * int
(** [get_varint b pos limit] decodes one varint at [pos], reading
    strictly below [limit]; returns [(value, end_pos)].
    @raise Corrupt on truncation or an overlong encoding. *)

val get_varint_string : string -> int -> int -> int * int

type cursor = { mutable pos : int }
(** A caller-owned decode position for {!read_varint} — allocate one
    per connection and every read is allocation-free (no result
    tuple). *)

val read_varint : Bytes.t -> cursor -> int -> int
(** [read_varint b cur limit]: like {!get_varint} from [cur.pos], but
    the end position is stored back into [cur] and only the value is
    returned. @raise Corrupt on truncation or an overlong encoding. *)
