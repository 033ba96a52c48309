(** Durable cluster snapshots.

    A snapshot holds everything {!Pmp_cluster.Cluster.import} needs:
    the static configuration and the cluster's {!Pmp_cluster.Cluster.state}
    — the counters, the admission queue, the live placements and the
    allocator's scalars — plus [seq], the number of WAL mutations it
    covers, so recovery knows which log records are already folded in.
    It holds no event history, so its size is O(live tasks) however
    long the daemon has run.

    On disk a snapshot is one binary record: the magic ["PMPS"], a
    format version byte, the fields as {!Wire} varints, and a 16-byte
    MD5 ({!Digest}) of everything before it. Files are written
    atomically ([.tmp] + fsync + rename + directory fsync) under
    [snapshot-<seq, zero-padded>.bin]; {!latest} picks the highest
    sequence number present and {!prune} drops the ones it supersedes.
    JSON snapshots ([snapshot-<seq>.json], pmp 1.7 and earlier) carried
    the event history; this version cannot read them, and {!legacy}
    finds them so the daemon can refuse them by name. *)

type t = {
  seq : int;  (** mutations covered (the WAL position at capture) *)
  machine_size : int;
  policy : Pmp_cluster.Cluster.policy;
  admission_cap : float option;
  state : Pmp_cluster.Cluster.state;
}

val policy_to_string : Pmp_cluster.Cluster.policy -> string
(** Stable encoding: ["greedy"], ["copies"], ["optimal"],
    ["periodic:<d>"], ["hybrid:<d>"] (with [d] an integer or ["inf"]),
    ["randomized:<seed>"]. *)

val policy_of_string :
  string -> (Pmp_cluster.Cluster.policy, string) result

val of_cluster :
  seq:int -> admission_cap:float option -> Pmp_cluster.Cluster.t -> t
(** Capture a cluster's state, O(live). [admission_cap] is the
    original [create] argument (the cluster only retains the derived
    PE capacity). *)

val restore : t -> (Pmp_cluster.Cluster.t, string) result
(** {!Pmp_cluster.Cluster.import} with this snapshot's fields: refused,
    with the cause named, unless the state passes its structural
    checks. *)

val encode : t -> string
(** The on-disk bytes. Equal snapshots encode to equal bytes: a
    cluster's export lists its placements by ascending id. *)

val decode : string -> (t, string) result
(** Inverse of {!encode}. Refuses, naming the cause: a bad magic or
    version, a checksum mismatch (any flipped byte), and fields no
    value of {!t} can hold — truncation, a size that is not a power of
    two, a placement not aligned to its size. Everything else, a
    placement outside the machine included, is {!restore}'s to
    check. *)

val save : dir:string -> t -> string
(** Write atomically into [dir]; returns the path written. On return
    the file and its directory entry are durable, so the WAL records it
    covers may be truncated. A failed write removes its [.tmp].
    @raise Sys_error when the directory is not writable.
    @raise Unix.Unix_error when an fsync fails. *)

val load : string -> (t, string) result
(** Read and {!decode} one file; errors are prefixed with its path. *)

val latest : dir:string -> (string * int) option
(** Highest-sequence snapshot file in [dir] as [(path, seq)]. *)

val legacy : dir:string -> string option
(** A JSON snapshot left in [dir] by pmp 1.7 or earlier, if any. *)

val prune : dir:string -> keep:int -> unit
(** Delete every snapshot file in [dir] whose sequence number is below
    [keep], and every [snapshot-*.tmp] a failed or interrupted {!save}
    left behind. Call it only once the snapshot at [keep] is durable
    ({!save} has returned) or, at startup, once recovery has read it:
    {!latest} never reads an older one. *)
