(** The write-ahead log.

    Append-only, one record per accepted mutation: every mutation is
    logged (with its global sequence number and, for submissions, the
    id the cluster assigned) before the response leaves the server, so
    a restart can replay exactly the acknowledged history. The log is
    rotated (truncated) whenever a {!Snapshot} covering its records is
    durably written.

    {b Layout.} A file opens with {!Wire.wal_magic} and
    {!Wire.wal_version} (2), then holds one frame per {!commit}:
    - a varint of (body length × 2 + named);
    - when named, the frame's first seq as a varint. The first frame a
      handle writes after {!open_log} or {!reset} is named, and so is a
      frame whose first seq does not follow the previous frame's last;
      every other frame continues the one before it;
    - the body: per record a varint of (id × 2 + kind), kind 0 a submit
      followed by its size as a varint, kind 1 a finish. Records take
      consecutive seqs from the frame's first;
    - a CRC-32C (4 bytes, little-endian) of every byte of the frame
      before it.

    The id stays because replay cross-checks it. A record kind still to
    come can take the submit shape with size 0, which no accepted
    submit has, without changing the framing.

    Appends are {e buffered}: {!append} encodes into memory and only
    {!commit} hands the batch to the OS in a single [write] (plus at
    most one [fsync]) — group commit, one frame per batch. The server
    calls it once per event-loop batch, after handling and before any
    response bytes reach a socket, so an acknowledged mutation is always
    at least as durable as its response regardless of policy.

    {b Loading} keeps the longest prefix of frames that verify. What
    follows it is a {e torn tail}, cut short by a crash mid-write, only
    when no frame verifies at any later byte; then it is dropped, and
    recovery cuts it off the file before appending. A verifying frame
    after a failing one means acknowledged records were damaged, and
    loading refuses, naming the damaged frame. *)

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
(** The one file format. This type and {!open_log}'s [?format] are
    kept only because the repository benchmark ([bench/e2e/layers.ml])
    names them; both go with the next change to that benchmark. *)

type t
(** An open log, positioned for appending. *)

val open_log : ?format:format -> string -> t
(** Opens (creating if absent) for append; one [fstat] learns whether
    the file is empty, and so whether the first commit writes the
    header. Appending after a torn tail would bury it under frames that
    verify, so recovery cuts it off first. @raise Unix.Unix_error. *)

val append : t -> seq:int -> op -> unit
(** Encode one record into the pending batch. Nothing reaches the file
    until {!commit}. A [seq] that does not follow the last appended one
    starts a new frame that names it. *)

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
(** Close the pending batch's frame and write the batch in one [write]
    (nothing, and no CRC work, when nothing is pending); when [fsync], force
    it to stable storage (skipped if nothing new reached the OS).
    Returns whether an fsync was actually performed. *)

val sync : t -> unit
(** Unconditional flush + fsync. *)

val reset : t -> unit
(** Discard pending records and truncate to empty (after a snapshot
    made the prefix redundant). *)

val close : t -> unit
(** Flush pending records (no fsync) and close. *)

type scan = {
  records : (int * op) list;  (** in file order, as [(seq, op)] *)
  verified : int;  (** bytes of the verified prefix, header included *)
  length : int;  (** bytes in the file: more than [verified] after a torn tail *)
}

val scan : string -> (scan, string) result
(** Read a log. A missing or empty file holds no record. Loading keeps
    the longest prefix of frames that verify (length within the file,
    a body, a matching CRC-32C). When a frame fails, every later byte
    offset, from the failing frame's first byte + 1, is tried as a
    frame: if none verifies, the rest is a torn tail and drops; if one
    does, the log is refused, naming the damaged frame's index and byte
    offset. Under [--fsync-policy never], frames a crash left unsynced
    can also reach the disk out of order, so there a refusal may mean
    lost unsynced writes. A header that never landed whole (a file of
    zeros, say) is a torn tail by the same rule.

    Refused too: a verified frame whose body does not decode, an
    unnamed first frame, non-increasing seqs; a version-1 log (pmp
    1.18 and earlier), by name, with how to migrate (serve the
    directory with pmp 1.18, send [snapshot], which empties the log,
    then [shutdown]); and a log opening with a JSON record (pmp 1.14
    and earlier), likewise. *)

val load : string -> ((int * op) list, string) result
(** {!scan}'s records. *)

val crc32c : Bytes.t -> int -> int -> int
(** [crc32c b off len]: the CRC-32C (Castagnoli) of [len] bytes of [b]
    from [off], table-driven, allocating nothing. *)
