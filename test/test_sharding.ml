(* The shard plan: the id interleaving must be a bijection that routes
   every global id back to the shard that minted it, at any shard
   count, and the placement scan both levels share must pick the
   leftmost least-loaded shard, headroom first, with home winning only
   a tie. *)

module Sharding = Pmp_util.Sharding

let plan_exn ~machine_size ~shards =
  match Sharding.plan ~machine_size ~shards with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan %d/%d: %s" machine_size shards e

let test_plan_validation () =
  let ok = plan_exn ~machine_size:256 ~shards:4 in
  Alcotest.(check int) "shard size" 64 ok.Sharding.shard_size;
  let fails ms k =
    match Sharding.plan ~machine_size:ms ~shards:k with
    | Ok _ -> Alcotest.failf "plan %d/%d unexpectedly ok" ms k
    | Error _ -> ()
  in
  fails 100 4;
  (* machine not a power of two *)
  fails 256 3;
  (* shards not a power of two *)
  fails 4 8 (* more shards than PEs *)

let test_leaf_offsets () =
  let p = plan_exn ~machine_size:256 ~shards:4 in
  Alcotest.(check (list int)) "offsets" [ 0; 64; 128; 192 ]
    (List.init 4 (Sharding.leaf_offset p));
  Alcotest.(check (list int)) "conn round-robin" [ 0; 1; 2; 3; 0; 1 ]
    (List.init 6 (Sharding.conn_shard p))

(* global_id is a bijection between (shard, local) pairs and global
   ids, with owner/local_id as its inverse, at any shard count: the
   mesh's powers of two and a federation's arbitrary counts alike. *)
let prop_id_bijection =
  QCheck.Test.make ~name:"sharding: id interleaving is a bijection"
    ~count:500
    QCheck.(triple (int_range 1 9) (int_bound 8) (int_bound 100_000))
    (fun (shards, shard, local) ->
      let shard = shard mod shards in
      let g = Sharding.global_id ~shards ~shard local in
      Sharding.owner ~shards g = shard
      && Sharding.local_id ~shards g = local
      && g >= 0)

let prop_id_distinct =
  QCheck.Test.make ~name:"sharding: distinct (shard, local) -> distinct ids"
    ~count:200
    QCheck.(
      quad (int_bound 2) (int_bound 7) (int_bound 2) (int_bound 7))
    (fun (s1, l1, s2, l2) ->
      let shards = 8 in
      let s1 = s1 mod 8 and s2 = s2 mod 8 in
      let g1 = Sharding.global_id ~shards ~shard:s1 l1
      and g2 = Sharding.global_id ~shards ~shard:s2 l2 in
      if s1 = s2 && l1 = l2 then g1 = g2 else g1 <> g2)

(* The placement scan: leftmost least load, shards with headroom
   before shards that would queue, and home wins only a tie in the
   tier the choice came from. *)
let test_pick () =
  let pick ?home ?(fits = fun _ -> true) ?(headroom = fun _ -> true) loads =
    Sharding.pick ?home ~shards:(Array.length loads) ~fits ~headroom
      (Array.get loads)
  in
  let none_of l s = not (List.mem s l) in
  Alcotest.(check (option int)) "leftmost least" (Some 1)
    (pick [| 3; 1; 2; 1 |]);
  Alcotest.(check (option int)) "home ties" (Some 3)
    (pick ~home:3 [| 3; 1; 2; 1 |]);
  Alcotest.(check (option int)) "home above the least stays out" (Some 1)
    (pick ~home:2 [| 3; 1; 2; 1 |]);
  Alcotest.(check (option int)) "headroom first" (Some 2)
    (pick ~headroom:(none_of [ 1; 3 ]) [| 3; 1; 2; 1 |]);
  Alcotest.(check (option int)) "a queueing home does not tie" (Some 2)
    (pick ~home:1 ~headroom:(none_of [ 1; 3 ]) [| 3; 1; 2; 2 |]);
  Alcotest.(check (option int)) "no headroom anywhere: leftmost least"
    (Some 1)
    (pick ~headroom:(fun _ -> false) [| 3; 1; 2; 1 |]);
  Alcotest.(check (option int)) "only shards that fit" (Some 2)
    (pick ~fits:(none_of [ 1; 3 ]) [| 3; 1; 2; 1 |]);
  Alcotest.(check (option int)) "nothing fits" None
    (pick ~home:0 ~fits:(fun _ -> false) [| 3; 1; 2; 1 |])

let suite =
  [
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "leaf offsets" `Quick test_leaf_offsets;
    Alcotest.test_case "pick" `Quick test_pick;
  ]
  @ Helpers.qtests [ prop_id_bijection; prop_id_distinct ]
