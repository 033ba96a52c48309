(** The write-ahead log.

    Append-only, one record per accepted mutation: every mutation is
    logged (with its global sequence number and, for submissions, the
    id the cluster assigned) before the response leaves the server, so
    a restart can replay exactly the acknowledged history. The log is
    rotated (truncated) whenever a {!Snapshot} covering its records is
    durably written.

    A record is a compact binary frame: {!Wire.wal_magic}, a version
    byte, a varint payload length, then an op tag and varint fields.
    pmp 1.14 and earlier could also write single-line JSON records,
    which open with ['{']; {!load} refuses a log holding one, naming
    the file and how to migrate, rather than keep a second decoder.

    Appends are {e buffered}: {!append} encodes into memory and only
    {!commit} hands the batch to the OS in a single [write] (plus at
    most one [fsync]) — group commit. The server calls it once per
    event-loop batch, after handling and before any response bytes
    reach a socket, so an acknowledged mutation is always at least as
    durable as its response regardless of policy.

    Loading tolerates a {e torn tail} — a final record cut short by a
    crash mid-write is dropped — but corruption anywhere else is an
    error: silently skipping an interior record would replay a history
    the cluster never served. *)

type op =
  | Submit of { id : int; size : int }
      (** An accepted submission; [id] is the id the cluster assigned
          (replay cross-checks it). Covers both placed and queued
          outcomes — the queue is deterministic given the history. *)
  | Finish of { id : int }
      (** An accepted completion (or queued-task cancellation). *)

(** When the log forces batches to stable storage. Whatever the
    policy, acknowledged mutations always reach the OS before their
    responses reach the socket. *)
type fsync_policy =
  | Always  (** fsync every record the moment it is appended *)
  | Group  (** one fsync per committed batch (the default) *)
  | Never  (** leave durability entirely to the OS *)

val parse_policy : string -> (fsync_policy, string) result
(** [always | group | never]. *)

val policy_name : fsync_policy -> string

type format = Binary_records
(** The one record encoding. This type and {!open_log}'s [?format] are
    kept only because the repository benchmark ([bench/e2e/layers.ml])
    names them; both go with the next change to that benchmark. *)

type t
(** An open log, positioned for appending. *)

val open_log : ?format:format -> string -> t
(** Opens (creating if absent) for append. @raise Unix.Unix_error. *)

val append : t -> seq:int -> op -> unit
(** Encode one record into the pending batch. Nothing reaches the file
    until {!commit}. *)

val append_submit : t -> seq:int -> id:int -> size:int -> unit
(** As {!append} but without building an {!op} — the zero-allocation
    fast path. *)

val append_finish : t -> seq:int -> id:int -> unit

val pending_records : t -> int
(** Records appended since the last {!commit} — the group size. *)

val last_seq : t -> int
(** Highest sequence number ever appended ([min_int] for none);
    includes pending records. *)

val durable_seq : t -> int
(** Highest sequence number known forced to stable storage — the
    durability watermark. *)

val commit : t -> fsync:bool -> bool
(** Write the whole pending batch in one [write]; when [fsync], force
    it to stable storage (skipped if nothing new reached the OS).
    Returns whether an fsync was actually performed. *)

val sync : t -> unit
(** Unconditional flush + fsync. *)

val reset : t -> unit
(** Discard pending records and truncate to empty (after a snapshot
    made the prefix redundant). *)

val close : t -> unit
(** Flush pending records (no fsync) and close. *)

val load : string -> ((int * op) list, string) result
(** All records in file order as [(seq, op)]. [Ok []] when the file
    does not exist. A final record cut short by a crash is dropped
    (torn tail), and so is a final line that opens no record (a
    zero-filled tail after power loss reads so). Malformed interior
    records, bytes opening no record with more records after them,
    and non-increasing sequence numbers are errors, and so is a JSON
    record anywhere: the error names the file and how to migrate. *)
