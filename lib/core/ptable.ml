module Task = Pmp_workload.Task

(* a power of two, so the ring slot of write [w] is [w land (size - 1)] *)
let journal_size = 64

type t = {
  tbl : (Task.id, Task.t * Placement.t) Hashtbl.t;
  ring : int array;  (** write [w] stored its id at [w mod journal_size] *)
  mutable writes : int;
}

let create n =
  { tbl = Hashtbl.create n; ring = Array.make journal_size 0; writes = 0 }

let journal t id =
  t.ring.(t.writes land (journal_size - 1)) <- id;
  t.writes <- t.writes + 1

let replace t (task : Task.t) p =
  Hashtbl.replace t.tbl task.id (task, p);
  journal t task.id

let remove t id =
  Hashtbl.remove t.tbl id;
  journal t id

let find t id = Hashtbl.find t.tbl id
let find_opt t id = Hashtbl.find_opt t.tbl id
let mem t id = Hashtbl.mem t.tbl id
let length t = Hashtbl.length t.tbl
let fold f t acc = Hashtbl.fold (fun _ tp acc -> f tp acc) t.tbl acc
let to_list t = Hashtbl.fold (fun _ tp acc -> tp :: acc) t.tbl []
let writes t = t.writes

let for_all_written t ~since f =
  since <= t.writes
  && t.writes - since <= journal_size
  &&
  let rec go w =
    w = t.writes || (f t.ring.(w land (journal_size - 1)) && go (w + 1))
  in
  go since
