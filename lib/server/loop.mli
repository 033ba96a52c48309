(** A single-threaded [Unix.select] event loop over byte streams.

    The loop owns a set of pre-bound listening sockets (TCP and/or
    Unix-domain — it never binds anything itself) and any number of
    accepted connections, each with a reusable {!Netbuf} pair: socket
    reads refill the in-buffer, [handle] decodes requests straight out
    of it and encodes responses into the out-buffer, socket writes
    drain the out-buffer. No strings, lines, or closures are built per
    request — the same storage is recycled round after round, which is
    what makes the server's zero-allocation fast path possible.

    Requests are drained in {e batches}: each round, every connection
    with buffered input gets one [handle] call that consumes as many
    complete requests as are available (up to 64); then, once per
    round, [on_commit] runs {e before} any response byte is written to
    any socket. The server points [on_commit] at the WAL's group
    commit, so a batch's log records always reach the OS (and disk,
    per policy) strictly before its acknowledgements can reach a
    client — the durability watermark is enforced by ordering, not by
    tracking.

    Backpressure is applied per connection on both sides: [handle]'s
    budget caps decoding per round (a connection that exhausts it is
    re-polled with a zero timeout rather than waiting for the socket),
    and a connection whose unsent output exceeds 1 MiB is removed
    from the read set until the client drains it. Neither cap drops
    data; both are constants.

    [handle] returning [`Stop] (the [shutdown] op) makes this the
    final round: listeners close, every queued response is flushed,
    and [run] returns. Exceptions from [handle] or [on_commit]
    (notably the server's crash-injection trip, which fires {e after}
    the covering WAL commit) propagate immediately, abandoning all out
    buffers — acknowledged-but-unsent responses die with the process,
    exactly the crash the WAL is there to cover. *)

val ignore_sigpipe : unit -> unit
(** Set [SIGPIPE] to ignore (no-op where unsupported). {!run} and the
    {!Client} call this themselves. *)

val setup_sigusr1 : (unit -> unit) option -> unit
(** Install a [SIGUSR1] disposition — [Signal_handle] around the
    callback, or [Signal_ignore] when [None]. {!run} calls this before
    its first [select], so a signal can never hit the default (fatal)
    disposition while the loop is live. No-op where unsupported. *)

val run :
  ?on_accept:(unit -> unit) ->
  ?on_drop:(Netbuf.t -> unit) ->
  ?on_batch:(int -> unit) ->
  ?on_commit:(unit -> unit) ->
  ?on_usr1:(unit -> unit) ->
  ?on_read_io:(float -> unit) ->
  ?on_write_io:(float -> unit) ->
  ?tick:(unit -> float) ->
  ?inbox:Unix.file_descr * (unit -> Unix.file_descr list option) ->
  listeners:Unix.file_descr list ->
  handle:(Netbuf.t -> Netbuf.t -> budget:int -> [ `Handled of int | `Stop of int ]) ->
  unit ->
  unit
(** Serve until [`Stop]. Closes the listeners and every connection
    before returning (also on exception).

    [handle inbuf out ~budget] must consume up to [budget] complete
    requests from the front of [inbuf] (leaving any incomplete tail
    buffered), append the encoded responses to [out], and return how
    many it consumed. [on_batch total] then [on_commit ()] run after
    each round that handled at least one request, before any response
    is written. [tick ()] runs before the loop sleeps and returns a
    select-timeout cap in seconds (negative for none): pmpd's writes a
    SIGUSR1 dump requested while idle, the router's runs its polls.
    [SIGPIPE] is set to ignore for the process, so writes to
    vanished peers surface as [EPIPE] and drop only that
    connection; [SIGUSR1] gets [on_usr1] (or ignore) installed before
    the first [select] — see {!setup_sigusr1}. A signal interrupting
    [select] surfaces as [EINTR], which the loop treats as an idle
    round: handlers run, then the loop re-selects.

    [on_drop inbuf] runs when a connection is closed and forgotten —
    the peer finished or reset it — with that connection's in-buffer,
    the same value [handle] received, so a handler keying state by
    connection can release it. Connections still open when [run]
    returns are closed without it.

    [inbox = (fd, take)] feeds the loop from other threads (a sharded
    server's acceptor and peer shards): [fd] joins the read set as a
    wake-up, and [take ()] runs once every round, after the batch and
    before the loop sleeps. It returns connections accepted elsewhere,
    to be served like the loop's own, or [None] to stop as [`Stop]
    does. With an inbox the loop runs until stopped even without
    listeners or connections.

    [on_read_io]/[on_write_io], when given, receive the wall-clock
    seconds spent refilling input buffers (the {e read} stage) and
    draining output buffers (the {e ack} stage) for each round that
    touched at least one connection — round-level attribution, since
    the socket pumps are shared across connections. Omitting them (the
    default) adds no clock calls to the loop. *)
