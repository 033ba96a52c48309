module Cluster = Pmp_cluster.Cluster
module Protocol = Pmp_server.Protocol
module Prng = Pmp_prng.Splitmix64

type op = Submit of { size : int; tenant : int } | Finish of int

type decision =
  | Routed of int
  | Rejected
  | Finished_on of int
  | Noop

type result = {
  decisions : decision array;
  stats : Cluster.stats array;
  routed : int array;
  rejects : int;
  rebalanced : int;
  rebalanced_bytes : int;
}

let ( let* ) = Result.bind

let run ~shards ~machine_size ?(admission_cap = None) ?tenant_quota ?rebalance
    ~ops () =
  let* clusters =
    let rec build acc s =
      if s = shards then Ok (Array.of_list (List.rev acc))
      else
        let* c =
          Cluster.create ~machine_size ~policy:Cluster.Greedy ~admission_cap ()
        in
        build (c :: acc) (s + 1)
    in
    build [] 0
  in
  let* route =
    Route.create
      ~shard_sizes:(Array.make shards machine_size)
      ~capacities:(Array.map Cluster.admission_capacity clusters)
      ~quota:tenant_quota
  in
  let call sx req = Ok (Protocol.answer clusters.(sx) req) in
  let acked = Array.make (List.length ops) 0 and n_acked = ref 0 in
  let decide i op =
    (match rebalance with
    | Some (config, every) when every > 0 && i > 0 && i mod every = 0 ->
        Route.rebalance route ~call config
    | _ -> ());
    let d =
      match op with
      | Submit { size; tenant } -> (
          match Route.request route ~call ~tenant (Protocol.Submit size) with
          | (Protocol.Placed (gid, _) | Protocol.Queued gid), Some sx ->
              acked.(!n_acked) <- gid;
              incr n_acked;
              Routed sx
          | _ -> Rejected)
      | Finish nth when nth >= 0 && nth < !n_acked -> (
          match
            Route.request route ~call ~tenant:0 (Protocol.Finish acked.(nth))
          with
          | Protocol.Finished, Some sx -> Finished_on sx
          | _ -> Noop)
      | Finish _ -> Noop
    in
    (* exact summaries: a stats poll of every shard after each op *)
    Array.iteri (fun sx c -> Route.observe route sx (Cluster.stats c)) clusters;
    d
  in
  let decisions = Array.of_list (List.mapi decide ops) in
  let count d = Array.fold_left (fun n d' -> if d' = d then n + 1 else n) 0 in
  let counts = Route.counts route in
  Ok
    {
      decisions;
      stats = Array.map Cluster.stats clusters;
      routed = Array.init shards (fun sx -> count (Routed sx) decisions);
      rejects = count Rejected decisions;
      rebalanced = counts.Route.rebalanced;
      rebalanced_bytes = counts.Route.rebalanced_bytes;
    }

let script ~seed ~ops ~machine_size ~tenants =
  let rng = Prng.create seed in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  let size_exps = max 1 (log2 (max 1 (machine_size / 4)) + 1) in
  let acked = ref 0 in
  List.init ops (fun _ ->
      if !acked > 0 && Prng.bernoulli rng 0.4 then
        Finish (Prng.int rng !acked)
      else begin
        incr acked;
        Submit
          {
            size = 1 lsl Prng.int rng size_exps;
            tenant = Prng.int rng (max 1 tenants);
          }
      end)
