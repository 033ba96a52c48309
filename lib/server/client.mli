(** A blocking client for the {!Protocol}.

    One socket, synchronous {!request} or pipelined {!send}/{!receive}
    (the server answers strictly in order). Speaks either encoding —
    compact binary frames or JSON lines — and detects the encoding of
    every incoming response from its first byte, so the format can
    even switch mid-connection. Used by [pmp client], the examples and
    the end-to-end tests. *)

type proto = Json | Binary

val parse_proto : string -> (proto, string) result
(** [binary | json]. *)

val proto_name : proto -> string

type t

val connect_unix : ?proto:proto -> string -> (t, string) result
(** [proto] (default [Json]) selects the encoding of outgoing
    requests. *)

val connect_tcp :
  ?proto:proto -> host:string -> port:int -> unit -> (t, string) result

val proto : t -> proto
val set_proto : t -> proto -> unit

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
    how a client observes a mid-stream server crash. *)

val receive_with_rid : t -> (Protocol.response * int option, string) result
(** Like {!receive} but also returns the echoed request id, when the
    response carries one. *)

val receive_attr :
  t -> (Protocol.response * int option * int option, string) result
(** Like {!receive_with_rid} but also returns the serving shard tag
    ([(response, rid, shard)]) stamped by a federation router;
    [None] against a plain (non-federated) server. *)

val close : t -> unit
