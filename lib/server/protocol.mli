(** The pmpd wire protocol.

    Every request and every response is one binary frame ({!Frame}):
    {!Wire.request_magic}, the wire {!Wire.version}, a varint payload
    length, then the payload, an opcode (requests) or status tag
    (responses) followed by varint fields. Frames are self-delimiting,
    so a client may pipeline: send many requests, then read as many
    responses, which come back strictly in order. A message that does
    not open a frame is refused ({!Frame.read}). [pmp client] reads the
    commands of {!request_of_command} from stdin and prints each answer
    through {!render_response}:

    {v
    > submit 8
    placed 0 at [16..24) copy 0
    > finish 0
    finished
    > submit 3
    error: size must be a positive power of two
    v} *)

type placement = { base : int; size : int; copy : int }
(** A task's home: the leaf span [[base, base + size)] in virtual copy
    [copy] (see {!Pmp_core.Placement}). *)

type request =
  | Submit of int  (** submit a task of the given size *)
  | Finish of int  (** complete (or cancel, if queued) a task by id *)
  | Query of int  (** where does this task live? *)
  | Stats
  | Loads  (** per-PE load vector *)
  | Metrics  (** Prometheus dump of the server registry *)
  | Snapshot  (** force a snapshot now *)
  | Ping
  | Health  (** readiness + uptime; see {!health} *)
  | Shutdown

type task_state = Active of placement | Queued_task | Unknown

type health = {
  ready : bool;
      (** recovery completed and passed the conformance oracle — by
          construction true on any serving pmpd, since it refuses to
          serve otherwise; a prober distinguishes ready from
          starting/refused by whether it gets this reply at all *)
  uptime_ms : int;
  seq : int;  (** highest WAL sequence applied *)
  recovered_ops : int;  (** WAL records replayed at startup *)
}

type response =
  | Placed of int * placement
  | Queued of int
  | Finished
  | State of int * task_state
  | Stats_reply of Pmp_cluster.Cluster.stats
  | Loads_reply of int array
  | Metrics_reply of string
  | Snapshot_reply of string  (** path of the snapshot written *)
  | Pong
  | Health_reply of health
  | Bye  (** acknowledges [Shutdown]; the connection then closes *)
  | Error of string

val placement_of_core : Pmp_core.Placement.t -> placement

(** {1 Encoding}

    A payload is an opcode (or status tag) byte followed by varint
    fields; strings are varint length + bytes. {!Frame} wraps it.

    A request or response carries at most one tag, in one form per
    direction: a request id ({!request_payload_rid}) on requests; on
    responses the echoed request id and, from a federation router, the
    serving shard ({!response_payload_rid} [?shard]), read back by the
    [_attr] decoders. *)

val opcode : request -> int
(** The request's binary opcode (1..10). Server metrics and flight
    recorders index requests by it, with 0 for an undecodable one. *)

val request_payload : Buffer.t -> request -> unit
(** Append the payload (opcode + fields, no frame header) to [buf]. *)

val response_payload : Buffer.t -> response -> unit
(** Append the payload (status tag + fields) to [buf], through the
    writers below. *)

(** {2 Response writers}

    Each appends one whole response payload and allocates nothing:
    {!response_payload} is made of them, and pmpd's op path calls them
    directly, so it answers without building a {!response}. A
    placement is its leaf span and copy, as in {!placement}; the query
    answers are [add_active], [add_queued_task] and [add_unknown].
    [add_rid] writes the head of {!response_payload_rid}'s wrapper
    without a shard: the payload appended after it echoes the id. *)

val add_placed : Buffer.t -> int -> base:int -> size:int -> copy:int -> unit
val add_queued : Buffer.t -> int -> unit
val add_finished : Buffer.t -> unit
val add_active : Buffer.t -> int -> base:int -> size:int -> copy:int -> unit
val add_queued_task : Buffer.t -> int -> unit
val add_unknown : Buffer.t -> int -> unit
val add_stats : Buffer.t -> Pmp_cluster.Cluster.stats -> unit
val add_error : Buffer.t -> string -> unit
val add_rid : Buffer.t -> int -> unit

val add_frame : Buffer.t -> Buffer.t -> unit
(** [add_frame buf payload] appends a complete frame wrapping
    [payload] to [buf] ({!Frame.add_to_buffer}). *)

val request_payload_rid : Buffer.t -> rid:int -> request -> unit
(** Wrap the request payload in the tagged-wrapper opcode carrying a
    varint request id. The wrapper never nests. *)

val response_payload_rid : Buffer.t -> rid:int -> ?shard:int -> response -> unit
(** Wrap the response payload with the echoed request id and, when
    given, the serving shard (the federation router's attribution):
    [varint rid], [[varint shard]], inner payload. Never nests. *)

val encode_request_binary : ?rid:int -> request -> string
(** A complete frame, ready to write to a socket (no newline); [?rid]
    uses the tagged wrapper. *)

val encode_response_binary : ?rid:int -> ?shard:int -> response -> string
(** [?shard] (requires [?rid]; ignored without it) uses the
    shard-tagged wrapper. *)

(** {2 Reading a request in place}

    The zero-allocation decoder: {!read_request} reads a request
    payload straight out of a byte buffer into a {!slot} its caller
    owns. pmpd reads every binary request with it, and
    {!decode_request_payload_rid} is it plus building the {!request}. *)

type op =
  | Op_submit  (** the size is in the slot *)
  | Op_finish  (** the id is in the slot *)
  | Op_query  (** the id is in the slot *)
  | Op of request  (** a request without an argument: a constant *)

type slot = private {
  cur : Wire.cursor;  (** the read position *)
  mutable opcode : int;
      (** the request's {!opcode}, inside any rid wrapper, once it has
          read whole; until then, and after a refusal, the payload's
          first byte *)
  mutable tagged : bool;  (** the request came in the rid wrapper *)
  mutable rid : int;  (** that wrapper's request id *)
  mutable size : int;  (** a submit's task size; 0 for any other request *)
  mutable id : int;  (** a finish's or query's task id *)
}

val slot : unit -> slot

val read_request : slot -> Bytes.t -> pos:int -> limit:int -> op
(** Read the request payload spanning [[pos, limit)] of the bytes,
    peeling one rid wrapper, and allocate nothing for a well-formed
    one. @raise Wire.Corrupt with the refusal text
    {!decode_request_payload_rid} returns. *)

val decode_request_payload :
  string -> pos:int -> limit:int -> (request, string) result
(** Decode a payload spanning [[pos, limit)] of [s] (header already
    stripped), transparently unwrapping (and discarding) a tagged
    request id. Never raises. *)

val decode_request_payload_rid :
  string -> pos:int -> limit:int -> (request * int option, string) result

val decode_response_payload :
  string -> pos:int -> limit:int -> (response, string) result

val decode_response_payload_attr :
  string ->
  pos:int ->
  limit:int ->
  (response * int option * int option, string) result
(** [(response, rid, shard)] — unwraps both the rid-tagged and the
    shard-tagged wrapper. *)

val decode_request_binary : string -> (request, string) result
(** Decode one complete frame, header included. Never raises. A string
    is refused as {!Frame.read} refuses it (one that does not open with
    {!Wire.request_magic} reads [not a binary frame: ...]); otherwise
    one under 3 bytes reads [truncated frame], and one holding more or
    less than one whole frame [frame length mismatch]. *)

val decode_response_binary : string -> (response, string) result

val request_of_command :
  string -> [ `Request of request | `Blank | `Quit | `Error of string ]
(** Parse an interactive console command — [submit <size>],
    [finish <id>], [query <id>], [stats], [loads], [metrics],
    [snapshot], [ping], [health], [shutdown] — into a request.
    [`Blank] on an empty line, [`Quit] on [quit]/[exit]. *)

val render_response : response -> string
(** Human-readable one-line rendering for the interactive client. *)

val answer : Pmp_cluster.Cluster.t -> request -> response
(** A bare cluster answering [submit], [finish], [query], [stats] and
    [loads] as a pmpd over it would; any other request gets an
    [Error]. [pmp console] answers through it, and so does each of
    [Pmp_federation.Sim]'s in-process shards. *)
