type plan = { shards : int; machine_size : int; shard_size : int }

let plan ~machine_size ~shards =
  if not (Pow2.is_pow2 machine_size) then
    Error (Printf.sprintf "machine size %d is not a power of two" machine_size)
  else if not (Pow2.is_pow2 shards) then
    Error (Printf.sprintf "shard count %d is not a power of two" shards)
  else if shards > machine_size then
    Error
      (Printf.sprintf "%d shards cannot partition %d PEs" shards machine_size)
  else Ok { shards; machine_size; shard_size = machine_size / shards }

let leaf_offset p shard = shard * p.shard_size
let conn_shard p n = n mod p.shards
let global_id ~shards ~shard local = (local * shards) + shard
let local_id ~shards g = g / shards
let owner ~shards g = g mod shards

let pick ?home ~shards ~fits ~headroom load =
  let scan ok =
    let best = ref None and least = ref max_int in
    for s = 0 to shards - 1 do
      if ok s then begin
        let l = load s in
        if l < !least then begin
          best := Some s;
          least := l
        end
      end
    done;
    match (!best, home) with
    | Some _, Some h when ok h && load h = !least -> Some h
    | best, _ -> best
  in
  match scan (fun s -> fits s && headroom s) with
  | None -> scan fits
  | best -> best
