(** A blocking client for the {!Protocol}.

    One socket, synchronous {!request} or pipelined {!send}/{!receive}
    (the server answers strictly in order), binary frames both ways.
    Bytes move through a {!Netbuf} in each direction and messages are
    found and framed by {!Frame}, so a response is refused as pmpd
    refuses a request: a frame of another version or with an empty
    payload is one [Error] and the responses behind it still decode; a
    garbage length, or a message that does not open a frame, is one
    [Error] that drops what was buffered. Used by [pmp client], the
    federation router's upstream connections, the examples and the
    end-to-end tests. *)

type t

val connect_unix : string -> (t, string) result
val connect_tcp : host:string -> port:int -> unit -> (t, string) result

val request : t -> Protocol.request -> (Protocol.response, string) result
(** Send one request and wait for its response. *)

val metrics : t -> (string, string) result
(** {!request} the server's metrics dump; read it back with
    {!Pmp_telemetry.Metrics.Dump}. *)

val send : t -> ?rid:int -> Protocol.request -> (unit, string) result
(** Send a request without waiting: {!queue} then {!flush}. [?rid]
    attaches a client-chosen request id the server echoes on the
    response — the handle for per-request latency attribution across
    pipelining. *)

val queue : t -> ?rid:int -> Protocol.request -> unit
(** Encode a request into the connection's pending bytes without
    writing anything; {!flush} sends everything queued in one write.
    This is how a batch of requests reaches the server as one read. *)

val flush : t -> (unit, string) result
(** Write every queued request. [Error] when the peer is gone; the
    queued bytes are dropped either way. *)

val receive : t -> (Protocol.response, string) result
(** Read the next response; [Error] on a closed connection — which is
    how a client observes a mid-stream server crash — or a refused
    message (see above). *)

val receive_attr :
  t -> (Protocol.response * int option * int option, string) result
(** Like {!receive} but also returns the response's tags,
    [(response, rid, shard)]: the echoed request id, when the request
    carried one, and the serving shard a federation router stamps on
    it ([None] against a plain server). *)

val close : t -> unit
