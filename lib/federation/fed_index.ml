(* A down shard's load: large enough to lose every comparison. *)
let poison = 1 lsl 30

type shard = {
  size : int;  (** the shard machine's PE count *)
  cap : int option;  (** admission capacity in PEs *)
  mutable up : bool;
  mutable reported_max : int;  (** max PE load at the last poll *)
  mutable active_est : int;  (** active PEs: last poll + routed since *)
}

type t = shard array

let create ~shard_sizes ~capacities =
  let m = Array.length shard_sizes in
  if m = 0 then invalid_arg "Fed_index.create: no shards";
  if Array.length capacities <> m then
    invalid_arg "Fed_index.create: capacities length mismatch";
  Array.init m (fun s ->
      {
        size = shard_sizes.(s);
        cap = capacities.(s);
        up = true;
        reported_max = 0;
        active_est = 0;
      })

let up t sx = t.(sx).up
let set_up t sx up = t.(sx).up <- up

let observe t sx ~max_load ~active_size =
  let s = t.(sx) in
  s.reported_max <- max_load;
  s.active_est <- active_size

let note_submit t sx ~size =
  let s = t.(sx) in
  s.active_est <- s.active_est + size

let note_finish t sx ~size =
  let s = t.(sx) in
  s.active_est <- max 0 (s.active_est - size)

let load t sx =
  let s = t.(sx) in
  if not s.up then poison
  else max s.reported_max ((s.active_est + s.size - 1) / s.size)

let pick t ~size =
  Pmp_util.Sharding.pick ~shards:(Array.length t)
    ~fits:(fun sx -> t.(sx).up && size <= t.(sx).size)
    ~headroom:(fun sx ->
      match t.(sx).cap with
      | None -> true
      | Some cap -> t.(sx).active_est + size <= cap)
    (load t)
