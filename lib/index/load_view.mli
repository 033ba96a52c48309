(** Pluggable load-accounting backend for the allocators.

    The repo grew two answers to the same queries: the original
    {!Pmp_machine.Load_map} whose min-of-max query is a left-to-right
    scan of the target level, and {!Load_index}, the O(log N)
    load-indexed view. This module lets every allocator be built over
    either — or over both at once, with each query cross-checked
    (the [--check=index] differential oracle).

    The API mirrors [Load_map]'s so the allocators are backend
    agnostic; tie-breaking is leftmost in both implementations, so a
    [Checked] view raising {!Divergence} is always a bug. *)

type backend =
  | Indexed  (** {!Load_index} only: the O(log N) production path. *)
  | Scan  (** [Load_map] only: the pre-index scan path, kept as the
              reference implementation and the bench baseline. *)
  | Checked
      (** Both, every query answered by the index and cross-checked
          against the scan; mismatches raise {!Divergence}. *)

exception Divergence of string
(** Raised by a [Checked] view when the index and the scan disagree. *)

val backend_to_string : backend -> string
val backend_of_string : string -> backend option

type t

val create : ?backend:backend -> Pmp_machine.Machine.t -> t
(** Defaults to [Indexed]. *)

val backend : t -> backend
val machine : t -> Pmp_machine.Machine.t

val add : t -> Pmp_machine.Submachine.t -> int -> unit
(** Add a (possibly negative) delta to every PE of an aligned
    submachine. *)

val max_overall : t -> int
val max_load : t -> Pmp_machine.Submachine.t -> int

val min_max_at_order : t -> int -> int * Pmp_machine.Submachine.t
(** Leftmost minimum-loaded window of one order; the greedy choice
    rule. *)

val loads_at_order : t -> int -> int array
val leaf_load : t -> int -> int
val leaf_loads : t -> int array

val imbalance : t -> float
(** [max PE load /. mean PE load]; [nan] when the machine is idle. *)

val total_load : t -> int
