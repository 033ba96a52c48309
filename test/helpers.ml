(* Shared test machinery: qcheck-to-alcotest glue, reproducible random
   sequence construction, naive reference implementations that the
   optimised structures are checked against, and a scripted socket peer
   for the pmpd client. *)

module Sm = Pmp_prng.Splitmix64
module Machine = Pmp_machine.Machine
module Sub = Pmp_machine.Submachine
module Task = Pmp_workload.Task
module Event = Pmp_workload.Event
module Sequence = Pmp_workload.Sequence

(* One PRNG seed for the whole qcheck layer, resolved once: QCHECK_SEED
   pins it (CI sets QCHECK_SEED=42 so every run explores the same
   cases), otherwise a fresh seed is drawn and printed for replay.
   Each property gets its own state from the seed, so pinning is
   independent of suite order. *)
let qcheck_seed =
  lazy
    (let seed =
       match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
       | Some s -> s
       | None ->
           Random.self_init ();
           Random.int 1_000_000_000
     in
     Printf.printf "qcheck seed: %d (set QCHECK_SEED to pin)\n%!" seed;
     seed)

let qtests cases =
  List.map
    (fun c ->
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| Lazy.force qcheck_seed |])
        c)
    cases

(* Run a seeded boolean property, logging the splitmix64 seed whenever
   it fails or raises. qcheck prints its own counterexample, but that
   is the *generated tuple*; this line is the one-stop value to paste
   into [Sm.create] to replay the exact PRNG stream outside the
   harness. *)
let with_seed ?(label = "prop") seed f =
  match f (Sm.create seed) with
  | true -> true
  | false ->
      Printf.eprintf "[%s] failing splitmix64 seed = %d\n%!" label seed;
      false
  | exception e ->
      Printf.eprintf "[%s] splitmix64 seed = %d raised: %s\n%!" label seed
        (Printexc.to_string e);
      raise e

(* Deterministically build a valid random sequence from (seed, steps):
   each step is an arrival of a random power-of-two size <= N (biased
   small) or the departure of a random active task. *)
let random_sequence ~seed ~machine_size ~steps =
  let g = Sm.create seed in
  let levels = Pmp_util.Pow2.ilog2 machine_size in
  let b = Sequence.Builder.create () in
  for _ = 1 to steps do
    let active = Sequence.Builder.active b in
    if active = [] || Sm.int g 3 < 2 then begin
      let order = Sm.int g (levels + 1) in
      let order = if Sm.bool g then Sm.int g (order + 1) else order in
      ignore (Sequence.Builder.arrive_fresh b ~size:(1 lsl order))
    end
    else begin
      let arr = Array.of_list active in
      Sequence.Builder.depart b arr.(Sm.int g (Array.length arr)).Task.id
    end
  done;
  Sequence.Builder.seal b

(* A qcheck arbitrary over (levels in [1..max_levels], seed, steps). *)
let seq_params ?(max_levels = 6) ?(max_steps = 200) () =
  QCheck.make
    ~print:(fun (levels, seed, steps) ->
      Printf.sprintf "levels=%d seed=%d steps=%d" levels seed steps)
    QCheck.Gen.(
      triple (int_range 1 max_levels) (int_range 0 1_000_000) (int_range 1 max_steps))

(* Naive per-PE load table: the reference the Load_map and the engine
   are validated against. *)
module Naive_loads = struct
  type t = { n : int; loads : int array }

  let create machine_size = { n = machine_size; loads = Array.make machine_size 0 }

  let add t sub delta =
    for leaf = Sub.first_leaf sub to Sub.last_leaf sub do
      t.loads.(leaf) <- t.loads.(leaf) + delta
    done

  let max_in t sub =
    let best = ref min_int in
    for leaf = Sub.first_leaf sub to Sub.last_leaf sub do
      if t.loads.(leaf) > !best then best := t.loads.(leaf)
    done;
    !best

  let max_overall t = Array.fold_left max t.loads.(0) t.loads
end

(* Maximum number of concurrently active full-machine (size = N) tasks
   in a sequence. Theorem 4.1's proof treats those as creating no
   imbalance ("we assume all tasks have size less than N"); on mixed
   sequences the universally valid greedy bound is
   [f * L* + max_full_tasks] because k concurrent full-machine tasks
   shift every PE's load up by exactly k without affecting greedy's
   choices. *)
let max_concurrent_full_tasks ~machine_size seq =
  let active = Hashtbl.create 16 in
  let count = ref 0 and peak = ref 0 in
  List.iter
    (fun (ev : Event.t) ->
      match ev with
      | Arrive task ->
          if task.Task.size = machine_size then begin
            Hashtbl.add active task.Task.id ();
            incr count;
            if !count > !peak then peak := !count
          end
      | Depart id ->
          if Hashtbl.mem active id then begin
            Hashtbl.remove active id;
            decr count
          end)
    (Sequence.to_list seq);
  !peak

(* Like random_sequence but with all task sizes strictly below the
   machine size (the regime Theorem 4.1's claim is stated for).
   Machines must have at least 2 levels so a proper size exists. *)
let random_sequence_no_full ~seed ~machine_size ~steps =
  let g = Sm.create seed in
  let levels = Pmp_util.Pow2.ilog2 machine_size in
  assert (levels >= 1);
  let b = Sequence.Builder.create () in
  for _ = 1 to steps do
    let active = Sequence.Builder.active b in
    if active = [] || Sm.int g 3 < 2 then begin
      let order = Sm.int g levels in
      ignore (Sequence.Builder.arrive_fresh b ~size:(1 lsl order))
    end
    else begin
      let arr = Array.of_list active in
      Sequence.Builder.depart b arr.(Sm.int g (Array.length arr)).Task.id
    end
  done;
  Sequence.Builder.seal b

(* Run an allocator over a sequence with the engine in checked mode —
   the default way integration tests exercise algorithms. *)
let run_checked alloc seq = Pmp_sim.Engine.run ~check:true alloc seq

let check_ok = Alcotest.(check (result unit string)) "invariants" (Ok ())

(* A [Pmp_server.Client] whose peer the test scripts byte by byte over a
   Unix socket under [dir]: [f client send hang_up] writes the peer's
   side with [send] and ends it with [hang_up], so a client that loses
   its place in the stream reads EOF rather than waiting forever. *)
let with_scripted_peer ~dir f =
  let module Client = Pmp_server.Client in
  let path = Filename.concat dir "peer.sock" in
  let listener = Pmp_server.Server.listen_unix path in
  let client =
    match Client.connect_unix path with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect %s: %s" path e
  in
  let peer, _ = Unix.accept listener in
  Unix.close listener;
  let send s = ignore (Unix.write_substring peer s 0 (String.length s)) in
  let hang_up () = Unix.shutdown peer Unix.SHUTDOWN_SEND in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      Unix.close peer)
    (fun () -> f client send hang_up)

(* The client's next receive must be [expected]: a response, or the
   exact error text. *)
let expect_receive ~ctx client expected =
  let module Protocol = Pmp_server.Protocol in
  match (Pmp_server.Client.receive client, expected) with
  | Ok r, Ok r' when r = r' -> ()
  | Error e, Error e' when e = e' -> ()
  | Ok r, _ -> Alcotest.failf "%s: got %s" ctx (Protocol.render_response r)
  | Error e, _ -> Alcotest.failf "%s: got error %s" ctx e

(* A request as [pmp client] takes it ([Protocol.request_of_command]),
   for failure messages. *)
let command_of_request (r : Pmp_server.Protocol.request) =
  match r with
  | Submit n -> Printf.sprintf "submit %d" n
  | Finish id -> Printf.sprintf "finish %d" id
  | Query id -> Printf.sprintf "query %d" id
  | Stats -> "stats"
  | Loads -> "loads"
  | Metrics -> "metrics"
  | Snapshot -> "snapshot"
  | Ping -> "ping"
  | Health -> "health"
  | Shutdown -> "shutdown"

(* What pmpd, the router and the client answer a message that does not
   open a frame, a JSON line of pmp 1.19 and earlier among them. *)
let not_a_frame =
  "not a binary frame: pmp 1.19 and earlier also read JSON lines, which \
   this version refuses; use pmp client, or the frames of TUTORIAL.md \
   section 12"
