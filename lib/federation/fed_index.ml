module Machine = Pmp_machine.Machine
module Submachine = Pmp_machine.Submachine
module Load_index = Pmp_index.Load_index

(* Large enough to lose every min-of-max comparison, small enough that
   range arithmetic over a handful of poisoned leaves cannot overflow. *)
let poison = 1 lsl 30

type shard = {
  size : int;  (** the shard machine's PE count *)
  cap : int option;  (** admission capacity in PEs *)
  mutable up : bool;
  mutable reported_max : int;  (** max PE load at the last poll *)
  mutable active_est : int;  (** active PEs: last poll + routed since *)
  mutable leaf : int;  (** value currently installed in the index *)
}

type t = {
  index : Load_index.t;
  machine : Machine.t;  (** [pow2ceil M] leaves, one per shard *)
  shards : shard array;
}

let rec pow2_ceil n k = if k >= n then k else pow2_ceil n (2 * k)

let leaf_value s =
  if not s.up then poison
  else max s.reported_max ((s.active_est + s.size - 1) / s.size)

let set_leaf t sx v =
  let s = t.shards.(sx) in
  if v <> s.leaf then begin
    Load_index.range_add t.index
      (Submachine.make t.machine ~order:0 ~index:sx)
      (v - s.leaf);
    s.leaf <- v
  end

let refresh t sx = set_leaf t sx (leaf_value t.shards.(sx))

let create ~shard_sizes ~capacities =
  let m = Array.length shard_sizes in
  if m = 0 then invalid_arg "Fed_index.create: no shards";
  if Array.length capacities <> m then
    invalid_arg "Fed_index.create: capacities length mismatch";
  let machine = Machine.create (pow2_ceil m 1) in
  let index = Load_index.create machine in
  let shards =
    Array.init m (fun s ->
        {
          size = shard_sizes.(s);
          cap = capacities.(s);
          up = true;
          reported_max = 0;
          active_est = 0;
          leaf = 0;
        })
  in
  (* padding leaves beyond the real shards are permanently poisoned *)
  for i = m to Machine.size machine - 1 do
    Load_index.range_add index (Submachine.make machine ~order:0 ~index:i) poison
  done;
  { index; machine; shards }

let up t sx = t.shards.(sx).up

let set_up t sx up =
  t.shards.(sx).up <- up;
  refresh t sx

let observe t sx ~max_load ~active_size =
  let s = t.shards.(sx) in
  s.reported_max <- max_load;
  s.active_est <- active_size;
  refresh t sx

let note_submit t sx ~size =
  let s = t.shards.(sx) in
  s.active_est <- s.active_est + size;
  refresh t sx

let note_finish t sx ~size =
  let s = t.shards.(sx) in
  s.active_est <- max 0 (s.active_est - size);
  refresh t sx

let load t sx = t.shards.(sx).leaf

let fits s ~size = s.up && size <= s.size

let headroom s ~size =
  match s.cap with None -> true | Some cap -> s.active_est + size <= cap

let pick t ~size =
  (* fast path: the leftmost globally least-loaded leaf, straight off
     the index *)
  let _, sub = Load_index.min_load_subtree t.index ~order:0 in
  let best = Submachine.index sub in
  let m = Array.length t.shards in
  if best < m && fits t.shards.(best) ~size && headroom t.shards.(best) ~size
  then Some best
  else begin
    (* slow path: scan the M summaries — leftmost min among shards
       with headroom, falling back to leftmost min among shards that
       merely fit (the shard will queue the task) *)
    let scan pred =
      let best = ref None in
      for sx = m - 1 downto 0 do
        let s = t.shards.(sx) in
        if pred s then
          match !best with
          | Some bx when t.shards.(bx).leaf < s.leaf -> ()
          | _ -> best := Some sx
      done;
      !best
    in
    match scan (fun s -> fits s ~size && headroom s ~size) with
    | Some sx -> Some sx
    | None -> scan (fun s -> fits s ~size)
  end
