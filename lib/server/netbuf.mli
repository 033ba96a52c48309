(** A reusable byte window for one side of a connection.

    One growable [Bytes.t] with a read position: socket reads append at
    the tail ({!refill}), the decoder consumes from the front
    ({!consume}), socket writes drain from the front ({!drain}). The
    live span slides back to offset zero instead of reallocating, so a
    connection in steady state allocates nothing per request — this is
    the buffer the zero-allocation fast path decodes from and encodes
    into. *)

type t

val create : int -> t
(** Initial capacity (grows by doubling when needed). *)

val length : t -> int
val is_empty : t -> bool

val bytes : t -> Bytes.t
(** The backing storage. Valid only together with {!offset}, and only
    until the next mutating call — {!reserve}/{!add_char}/{!refill} may
    slide or replace it. *)

val offset : t -> int
(** Absolute position of the first unconsumed byte in {!bytes}. *)

val clear : t -> unit
val reserve : t -> int -> unit

val get_byte : t -> int -> int
(** Byte at offset [i] relative to the read position (unchecked). *)

val consume : t -> int -> unit
(** Drop [n] bytes from the front; they stay in {!bytes} until the next
    write into the buffer. @raise Invalid_argument beyond {!length}. *)

val find_byte : t -> char -> int option
(** Offset (relative to the read position) of the first occurrence. A
    search that fails remembers how far it looked, and the next one
    resumes there until something is consumed, so a buffer must only
    ever be searched for one byte ({!Frame} looks for ['\n']). *)

val sub_string : t -> off:int -> len:int -> string
(** Copy out a span (relative to the read position). *)

val add_char : t -> char -> unit
val add_string : t -> string -> unit
val add_subbytes : t -> Bytes.t -> int -> int -> unit
(** [add_subbytes t b off n] appends [n] bytes of [b] from [off]. *)

val add_buffer : t -> Buffer.t -> unit
val add_varint : t -> int -> unit

val refill : ?chunk:int -> t -> Unix.file_descr -> int
(** Read once from [fd] into the tail (guaranteeing at least [chunk]
    bytes of room, default 64 KiB); returns the count, [0] on EOF.
    @raise Unix.Unix_error like [Unix.read]. *)

val drain : t -> Unix.file_descr -> int
(** Write the front of the buffer to [fd] once and consume what was
    accepted; returns the count. @raise Unix.Unix_error. *)
