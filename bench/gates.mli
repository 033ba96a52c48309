(** The gates of [bench/regress.exe], as data: one table of rows and
    one checker.

    A row names a path into the regress report, a kind of bound, and
    whether a failure fails the run (hard) or only warns (advisory).
    {!check} judges a report row by row, against a baseline report for
    the kinds that compare with one. The bounds are the constants
    below; the probes echo them into the report from here. *)

module Json = Pmp_util.Json

(** {1 Bounds} *)

val tolerance : float
(** Allowed growth over the baseline for the {!Drift} rows (0.25). *)

val min_speedup : float
(** Scan-vs-index per-event speedup floor. *)

val min_service_speedup : float
(** binary+group over json+always, same host. *)

val min_group_records_per_fsync : float
(** WAL records per fsync under group commit: strictly above this. *)

val min_multicore_speedup : float
(** [--domains=4] over [--domains=1], four connections. *)

val max_observability_overhead : float
(** Fully instrumented over telemetry-disabled service, advisory. *)

val max_federation_overhead : float
(** Router over three shards against the direct daemon, advisory. *)

val min_requests_per_upstream_batch : float
(** Requests the router forwards per upstream flush. *)

val max_audit_words_per_event : float
(** Structural oracle words per event. *)

val max_startup_words_per_pe : float
(** [Server.create] words per PE on a fresh directory. *)

val max_words_per_add : float
(** [Load_index.range_add] words per add. *)

val max_wal_bytes_per_record : float
(** wal.log bytes per record a restart replays from it, in the state
    runs. *)

(** {1 The table} *)

type kind =
  | Same  (** the same JSON as the baseline's value *)
  | Equal of Json.t  (** the same JSON as this value *)
  | At_least of float
  | Above of float  (** finite and strictly above *)
  | At_most of float
  | Drift  (** at most the baseline's value × (1 + {!tolerance}) *)
  | No_growth
      (** the last entry of the path's [*] step no larger than the
          first: one check per row, not one per entry *)

type row = {
  path : string list;
      (** steps into the report; a ["*"] step expands over an object's
          fields. A list, never a string split on ['/']: case keys
          such as [greedy/N=256] contain one. *)
  kind : kind;
  hard : bool;  (** a failure fails the run, or only warns *)
}

val table : row list

(** {1 Judging a report} *)

type verdict = Pass | Fail | Not_taken of string  (** with its reason *)

type check = {
  row : row;
  key : string list;
      (** [row.path] with each [*] expanded, over the run's fields and
          then any only the baseline has, so a key the run lost fails.
          A [*] that reaches no object stays, and reads as missing. *)
  verdict : verdict;
  detail : string;  (** the value and its bound, as the report prints *)
}

val check : ?baseline:Json.t -> Json.t -> check list
(** Every row of {!table} over a report, in table order. A path that
    reaches an object recorded as [skipped] is not taken, with the
    object's [reason]; a value missing from the report fails. The kinds
    that compare with the baseline are not taken when it lacks the
    value, or when no baseline is given. *)

val ok : check list -> bool
(** No hard row failed. Advisory failures and rows not taken pass. *)

val print : check list -> unit
(** One line per check: its status, key, value and bound. *)
