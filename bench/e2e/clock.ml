(* Monotonic nanoseconds (clock_gettime, unboxed and allocation-free):
   the one timer under every measurement in the benchmark. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let since_s t0 = float_of_int (now_ns () - t0) /. 1e9

(* The host's speed: milliseconds taken by a fixed piece of CPU work
   that belongs to the benchmark, not to pmp — xorshift steps, random
   reads and writes over a 1 MiB array, and short-lived allocation.
   The shared host this benchmark was calibrated on runs the same code
   up to twice as fast in one minute as in the next; timing this loop
   next to each measurement tracks that swing, so a cost can be scaled
   to a host of fixed speed. *)
let ref_array = Array.make 131072 0

let ref_loop_ms () =
  let a = ref_array in
  let t0 = now_ns () in
  let x = ref 88172645463325252 and acc = ref [] in
  for i = 1 to 500_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land 131071 in
    a.(j) <- a.(j) + i;
    acc := if i land 7 = 0 then [] else i :: !acc
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (now_ns () - t0) /. 1e6

(* [ref_loop_ms] on the recording host in a quiet minute: scaled
   costs read as that host's, at its fastest. *)
let ref_host_ms = 3.0

(* Cost of one [now_ns] pair, subtracted from per-call layer timings so
   that a 50 ns lookup is not reported as 80. *)
let pair_overhead_ns =
  lazy
    (let n = 100_000 in
     let acc = ref 0 in
     for _ = 1 to n do
       let t = now_ns () in
       acc := !acc + (now_ns () - t)
     done;
     float_of_int !acc /. float_of_int n)
