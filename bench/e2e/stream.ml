(* Seeded request streams and their reference answers.

   Every stream is built from [Generators.churn] — stationary churn
   around utilisation 1.5 — before any clock starts, so the same seed
   always yields the same requests. A stream is three flat arrays
   (kind, size, task id) so the client can encode frames straight from
   them without allocating. Task ids are the generator's own (0, 1, 2,
   ... in arrival order), which is also the order a fresh pmpd assigns
   ids in: a single daemon's ids are predictable, and {!reference}
   checks that they are. *)

module Cluster = Pmp_cluster.Cluster
module Protocol = Pmp_server.Protocol
module Event = Pmp_workload.Event
module Task = Pmp_workload.Task
module Prng = Pmp_prng.Splitmix64

let k_submit = 0
let k_finish = 1
let k_query = 2
let k_stats = 3

type t = {
  kind : int array;
  size : int array;  (** the task size of a submit *)
  tid : int array;  (** the stream task id of a submit, finish or query *)
  prefill : int;  (** ops before this index only build up state *)
  tasks : int;  (** stream task ids are [0 .. tasks - 1] *)
  mutations : int;
  machine_size : int;
  peak_lstar : int;  (** L* = ceil (s(sigma) / N) over the stream *)
}

let length t = Array.length t.kind
let target_util = 1.5
let max_order = 10

let churn g ~machine_size ~steps =
  Pmp_workload.Generators.churn g ~machine_size ~steps ~target_util ~max_order
    ~size_bias:0.6

type draft = {
  kinds : int array;
  sizes : int array;
  tids : int array;
  mutable n : int;
  mutable arrivals : int;
  mutable active : int;
  mutable peak : int;
}

let draft len =
  {
    kinds = Array.make len k_stats;
    sizes = Array.make len 0;
    tids = Array.make len (-1);
    n = 0;
    arrivals = 0;
    active = 0;
    peak = 0;
  }

let push b kind ~size ~tid =
  b.kinds.(b.n) <- kind;
  b.sizes.(b.n) <- size;
  b.tids.(b.n) <- tid;
  b.n <- b.n + 1

let push_event b sizes = function
  | Event.Arrive task ->
      push b k_submit ~size:task.Task.size ~tid:task.Task.id;
      b.arrivals <- b.arrivals + 1;
      b.active <- b.active + task.Task.size;
      b.peak <- max b.peak b.active
  | Event.Depart id ->
      push b k_finish ~size:0 ~tid:id;
      b.active <- b.active - sizes.(id)

(* Every stream ends with one [Stats], whose answer checks the whole
   history the daemon applied. *)
let seal b ~prefill ~machine_size =
  push b k_stats ~size:0 ~tid:(-1);
  let mutations = ref 0 in
  for i = 0 to b.n - 1 do
    if b.kinds.(i) = k_submit || b.kinds.(i) = k_finish then incr mutations
  done;
  {
    kind = Array.sub b.kinds 0 b.n;
    size = Array.sub b.sizes 0 b.n;
    tid = Array.sub b.tids 0 b.n;
    prefill;
    tasks = b.arrivals;
    mutations = !mutations;
    machine_size;
    peak_lstar = (b.peak + machine_size - 1) / machine_size;
  }

let task_sizes events =
  let sizes = Array.make (Array.length events) 0 in
  Array.iter
    (function
      | Event.Arrive task -> sizes.(task.Task.id) <- task.Task.size
      | Event.Depart _ -> ())
    events;
  sizes

(* Pure churn: [mutations] submits and finishes. *)
let churn_only ~seed ~machine_size ~mutations =
  let events =
    Pmp_workload.Sequence.events
      (churn (Prng.create seed) ~machine_size ~steps:mutations)
  in
  let sizes = task_sizes events in
  let b = draft (mutations + 1) in
  Array.iter (push_event b sizes) events;
  seal b ~prefill:0 ~machine_size

(* Read-mostly: churn until the pool first reaches 90% of its target
   size (the untimed prefill), then [ops] requests of which 85% query a
   uniformly random live task, 5% ask for stats and 10% continue the
   churn. *)
let query_mix ~seed ~machine_size ~ops =
  let g = Prng.create seed in
  let target = target_util *. float_of_int machine_size in
  (* the ramp to 90% of target takes ~2 target/mean-size events; the
     mean task size is ~8 at max_order 10, bias 0.6 *)
  let ramp = int_of_float (3.0 *. target /. 8.0) in
  let events =
    Pmp_workload.Sequence.events
      (churn g ~machine_size ~steps:(ramp + (ops * 13 / 100) + 500))
  in
  let sizes = task_sizes events in
  let mix = Prng.split g in
  let b = draft (Array.length events + ops + 1) in
  let live = Array.make (Array.length events) 0
  and pos = Array.make (Array.length events) (-1)
  and n_live = ref 0
  and next = ref 0 in
  let step () =
    (match events.(!next) with
    | Event.Arrive task ->
        live.(!n_live) <- task.Task.id;
        pos.(task.Task.id) <- !n_live;
        incr n_live
    | Event.Depart id ->
        let p = pos.(id) and last = live.(!n_live - 1) in
        live.(p) <- last;
        pos.(last) <- p;
        pos.(id) <- -1;
        decr n_live);
    push_event b sizes events.(!next);
    incr next
  in
  while float_of_int b.active < 0.9 *. target do
    if !next >= Array.length events then
      invalid_arg "Stream.query_mix: churn never reached its target";
    step ()
  done;
  let prefill = b.n in
  for _ = 1 to ops do
    let u = Prng.float mix 1.0 in
    if u < 0.85 then
      push b k_query ~size:0 ~tid:live.(Prng.int mix !n_live)
    else if u < 0.90 || !next >= Array.length events then
      push b k_stats ~size:0 ~tid:(-1)
    else step ()
  done;
  seal b ~prefill ~machine_size

(* The answers a fresh greedy pmpd of the stream's machine size must
   give, from an in-process reference cluster; also returns that
   cluster in its final state. Fails if the cluster's ids are not the
   stream's, since the client relies on predicting them. *)
let reference t =
  let c =
    match Cluster.create ~machine_size:t.machine_size ~policy:Cluster.Greedy () with
    | Ok c -> c
    | Error e -> failwith e
  in
  let expected = Array.make (length t) Protocol.Pong in
  for i = 0 to length t - 1 do
    let tid = t.tid.(i) in
    expected.(i) <-
      (match t.kind.(i) with
      | 0 -> (
          match Cluster.submit c ~size:t.size.(i) with
          | Ok (Cluster.Placed (id, p)) when id = tid ->
              Protocol.Placed (id, Protocol.placement_of_core p)
          | Ok (Cluster.Queued id) when id = tid -> Protocol.Queued id
          | Ok _ -> failwith "reference: cluster ids diverge from stream ids"
          | Error e -> failwith ("reference: " ^ e))
      | 1 -> (
          match Cluster.finish c tid with
          | Ok () -> Protocol.Finished
          | Error e -> failwith ("reference: " ^ e))
      | 2 ->
          Protocol.State
            ( tid,
              match Cluster.placement c tid with
              | Some p -> Protocol.Active (Protocol.placement_of_core p)
              | None ->
                  if Cluster.is_queued c tid then Protocol.Queued_task
                  else Protocol.Unknown )
      | _ -> Protocol.Stats_reply (Cluster.stats c))
  done;
  (c, expected)
