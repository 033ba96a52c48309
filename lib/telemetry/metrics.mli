(** Typed instruments and a named registry.

    The four instrument kinds cover everything the simulators need to
    expose: monotone totals ({!Counter}), last-value-plus-peak state
    ({!Gauge}), distributions over log-spaced buckets ({!Histogram} —
    loads and load ratios span orders of magnitude, so linear buckets
    would waste resolution where it matters), and accumulated wall-clock
    ({!Span}). Instruments are plain mutable records: updating one is a
    handful of stores, no allocation, so probes can sit on hot paths.

    A {!Registry} names instruments — optionally with Prometheus-style
    labels — so a whole set can be rendered as a Prometheus-style text
    snapshot ({!prometheus}). *)

module Counter : sig
  type t

  val make : unit -> t
  val inc : t -> int -> unit
  val incr : t -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val make : unit -> t
  val set : t -> float -> unit
  val value : t -> float

  val max_seen : t -> float
  (** Largest value ever set; [0.0] before the first {!set}. *)
end

val bucket_ceil : start:float -> ratio:float -> float -> float
(** [bucket_ceil ~start ~ratio x] is the smallest geometric bucket
    boundary [start *. ratio ** k] (k ≥ 0) at or above [x], with a
    relative tolerance of 1e-9 so values sitting exactly on a boundary
    land in that bucket. Values at or below [start] map to [start].
    This is the canonical bucketing rule shared by scenario verdicts
    and bench gates — keep it bit-stable. *)

val quantile_of_buckets :
  (float * int) list -> max_seen:float -> count:int -> float -> float
(** [quantile_of_buckets buckets ~max_seen ~count q] estimates the
    [q]-quantile (q in [0,1], clamped) from Prometheus-style cumulative
    [(upper_bound, cumulative_count)] buckets, interpolating
    geometrically inside the covering bucket (log-spaced buckets spread
    mass log-uniformly). Nothing observed lies above [max_seen], so a
    covering bucket ends there, the [+Inf] overflow bucket included,
    and the estimate never exceeds it. The first bucket reports its
    upper bound (or [max_seen], if lower); buckets with non-positive
    bounds interpolate linearly. Returns [0.0] when [count = 0]. *)

module Histogram : sig
  type t

  val make : float array -> t
  (** [make bounds] with strictly increasing bucket upper bounds; an
      implicit [+Inf] overflow bucket is always appended.
      @raise Invalid_argument if [bounds] is empty or not increasing. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val max_seen : t -> float
  (** Largest value observed; [0.0] before the first observation. *)

  val buckets : t -> (float * int) list
  (** Cumulative [(upper_bound, count)] pairs, Prometheus style; the
      final pair's bound is [infinity]. *)

  val quantile : t -> float -> float
  (** [quantile t q] is {!quantile_of_buckets} over [buckets t]. *)
end

module Span : sig
  type t

  val make : unit -> t

  val add : t -> float -> unit
  (** Record one timed interval, in seconds. *)

  val count : t -> int
  val total : t -> float
  val max_seen : t -> float
end

(** The rolling window behind [pmpd_p99_load_ratio]: the last 1024
    load ratios pushed, each a max load over L*, pmpd's one per
    committed batch and the federation router's one per poll. *)
module Ratio_window : sig
  type t

  val make : unit -> t

  val push : t -> max_load:int -> optimal:int -> unit
  (** Record [max_load / optimal]; nothing when [optimal <= 0] (an
      empty machine has no ratio). It takes ints, so a caller on the
      commit path boxes no float. *)

  val p99 : t -> float
  (** Nearest-rank p99 of the window; [0.0] before the first push. It
      sorts a copy, so it belongs on a cold path such as a dump. *)
end

val log_bounds : start:float -> ratio:float -> count:int -> float array
(** [log_bounds ~start ~ratio ~count] is
    [[| start; start *. ratio; start *. ratio²; ... |]] of length
    [count]. @raise Invalid_argument unless [start > 0], [ratio > 1]
    and [count > 0]. *)

val escape_label : string -> string
(** Prometheus label-value escaping: backslash, double quote and
    newline become backslash-escaped sequences. Returns the input
    unchanged (no copy) when nothing needs escaping. *)

(** {1 Registry} *)

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_histogram of Histogram.t
  | I_span of Span.t

module Registry : sig
  type t

  val create : unit -> t

  val counter :
    t -> ?labels:(string * string) list -> ?help:string -> string -> Counter.t

  val gauge :
    t -> ?labels:(string * string) list -> ?help:string -> string -> Gauge.t

  val histogram :
    t ->
    ?labels:(string * string) list ->
    ?help:string ->
    string ->
    float array ->
    Histogram.t
  (** See {!Histogram.make} for the bounds contract. *)

  val span :
    t -> ?labels:(string * string) list -> ?help:string -> string -> Span.t
  (** Rendered as a Prometheus summary ([_sum]/[_count]/[_max]). *)

  val entries :
    t -> (string * (string * string) list * string * instrument) list
  (** [(name, labels, help, instrument)] in registration order.
      @raise Invalid_argument on duplicate [(name, labels)] registration
      (checked at instrument-creation time). *)
end

val prometheus : Registry.t -> string
(** Prometheus text-format dump of every registered instrument:
    [# HELP]/[# TYPE] lines (emitted once per metric name, on its first
    occurrence) plus samples; histograms get [_bucket] rows with [le]
    labels plus [_sum] and [_count]. Label values are escaped with
    {!escape_label}. Output is byte-stable for a fixed registration
    order and instrument state. *)

val default_keep_prefixes : string list
(** The per-shard passthrough prefixes {!merge_prometheus} uses by
    default: [["pmpd_shard_"; "fed_shard_"]]. *)

val merge_prometheus :
  ?strip_label:string ->
  ?keep_prefixes:string list ->
  ?max_names:string list ->
  string list ->
  string
(** Merge the {!prometheus} dumps of [K] registries that were built by
    the same registration sequence — the per-shard registries of a
    sharded server, which register identical instruments except for a
    distinguishing [strip_label] (default ["shard"]). The merge is
    positional: line [i] of every dump describes the same instrument,
    so the result preserves the registration order exactly and scrapers
    (including [pmp top] and the Prometheus-order tests) see the same
    series in the same order as a single-registry server.

    Per line: comments are taken from the first dump; samples whose
    name starts with any prefix in [keep_prefixes] (default
    {!default_keep_prefixes}) are intentionally per-shard and pass
    through once per dump, in dump order — the rule is purely
    prefix-driven, so a federation router can keep its own [fed_shard_*]
    series per-upstream with the same stable-order guarantees;
    every other sample has [strip_label] removed and its values
    combined — by [Float.max] when the name ends in [_max] or is listed
    in [max_names] (a per-shard peak of a global quantity), by sum
    otherwise (counts, sums, bucket populations, gauge levels).

    [merge_prometheus [d]] is [d], byte for byte. Dumps whose shapes
    disagree (different line counts, mismatched names) degrade to
    concatenation / verbatim passthrough rather than dropping data. *)

(** {1 Reading a dump back}

    The one reader for {!prometheus} and {!merge_prometheus} text: how
    clients, benches and tests get numbers back out of a live daemon's
    metrics reply. Label values come back unescaped, and a label
    selector matches every series whose labels include all of its
    pairs. *)
module Dump : sig
  type sample = {
    name : string;
    labels : (string * string) list;
    value : float;
  }

  val samples : string -> sample list
  (** Every sample line, in dump order; comments and lines that do not
      scan are skipped. *)

  val value : ?labels:(string * string) list -> string -> string -> float option
  (** [value ?labels dump name] is the value of the first series named
      [name] whose labels include [labels] (default: any series). *)

  val buckets :
    ?labels:(string * string) list -> string -> string -> (float * int) list
  (** [buckets ?labels dump name] is histogram [name]'s cumulative
      [(upper_bound, count)] pairs, read from its [name_bucket] series,
      in dump order; the [+Inf] bucket's bound is [infinity]. *)

  val quantile :
    ?labels:(string * string) list ->
    before:string ->
    after:string ->
    string ->
    float ->
    (float * int) option
  (** [quantile ?labels ~before ~after name q] is the [q]-quantile
      ({!quantile_of_buckets}) of the observations histogram [name]
      gained between two dumps of one registry, with their number;
      [None] when it gained none. [~before:""] reads the whole
      history. *)
end
