(** Durable cluster snapshots.

    A snapshot externalises everything {!Pmp_cluster.Cluster.restore}
    needs: the static configuration, the allocator-visible event
    history, the admission queue and the id/submit/complete counters —
    plus [seq], the number of WAL mutations it covers, so recovery
    knows which log records are already folded in. Files are written
    atomically ([.tmp] + fsync + rename + directory fsync) under
    [snapshot-<seq, zero-padded>.json]; {!latest} picks the highest
    sequence number present and {!prune} drops the ones it supersedes. *)

type t = {
  seq : int;  (** mutations covered (the WAL position at capture) *)
  machine_size : int;
  policy : Pmp_cluster.Cluster.policy;
  admission_cap : float option;
  next_id : int;
  submitted : int;
  completed : int;
  events : Pmp_workload.Event.t list;
  queued : (int * int) list;
}

val policy_to_string : Pmp_cluster.Cluster.policy -> string
(** Stable encoding: ["greedy"], ["copies"], ["optimal"],
    ["periodic:<d>"], ["hybrid:<d>"] (with [d] an integer or ["inf"]),
    ["randomized:<seed>"]. *)

val policy_of_string :
  string -> (Pmp_cluster.Cluster.policy, string) result

val of_cluster :
  seq:int -> admission_cap:float option -> Pmp_cluster.Cluster.t -> t
(** Capture a cluster's externalisable state. [admission_cap] is the
    original [create] argument (the cluster only retains the derived
    PE capacity). *)

val restore : t -> (Pmp_cluster.Cluster.t, string) result
(** {!Pmp_cluster.Cluster.restore} with this snapshot's fields. *)

val save : dir:string -> t -> string
(** Write atomically into [dir]; returns the path written. On return
    the file and its directory entry are durable, so the WAL records it
    covers may be truncated.
    @raise Sys_error when the directory is not writable.
    @raise Unix.Unix_error when an fsync fails. *)

val load : string -> (t, string) result

val latest : dir:string -> (string * int) option
(** Highest-sequence snapshot file in [dir] as [(path, seq)]. *)

val prune : dir:string -> keep:int -> unit
(** Delete every snapshot file in [dir] whose sequence number is below
    [keep]. Call it only once the snapshot at [keep] is durable
    ({!save} has returned): {!latest} never reads an older one, and
    each holds the whole event history, so keeping them all makes the
    state directory grow quadratically. *)
