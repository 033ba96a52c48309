(** The paper's greedy online algorithm [A_G] (no reallocation).

    On an arrival of size [2{^x}], compute the load (maximum PE load)
    of every [2{^x}]-PE submachine and assign the task to the leftmost
    one with the smallest load; departures simply vacate. Theorem 4.1:
    the load never exceeds [ceil ((log N + 1) / 2) * L*]; Theorem 4.3
    shows this is tight within a factor of two. *)

val create :
  ?probe:Pmp_telemetry.Probe.t ->
  ?state:Allocator.state ->
  Pmp_machine.Machine.t ->
  Allocator.t
(** [?probe] (default {!Pmp_telemetry.Probe.noop}) times each
    placement search ([record_placement]); greedy never repacks, so
    that is its entire footprint. The choice reads the table's
    {!Pmp_index.Load_index} in O(log N). [?state] (valid per
    {!Allocator.check_state}) resumes an exported greedy allocator. *)
