(** LEB128 varints and framing constants shared by the binary
    {!Protocol} and the {!Wal} file format.

    A varint carries a full OCaml [int] (the 63-bit two's-complement
    bit pattern, seven bits per byte, most significant chunk last), so
    negative values round-trip in at most {!max_varint_bytes} bytes and
    the common small ids and sizes cost one. *)

exception Corrupt of string
(** Malformed wire data: truncated or overlong varint, bad frame. *)

val request_magic : int
(** First byte of every protocol frame (request and response). A
    message that opens with any other byte is refused ({!Frame.read}). *)

val wal_magic : int
(** First byte of a WAL file, before its {!wal_version} byte. It cannot
    open a JSON value, so {!Wal.load} tells a JSON log that an old
    release wrote, which it refuses, from a WAL file. *)

val version : int
(** Wire format version carried in every protocol frame's second
    byte. *)

val wal_version : int
(** Version of the WAL file format, its second byte: 2, the
    checksummed frames of pmp 1.19. Version 1 (pmp 1.18 and earlier)
    repeated {!wal_magic} and a version byte in every record. It is the
    WAL's own, apart from the protocol's {!version}. *)

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
