module Task = Pmp_workload.Task
module Sub = Pmp_machine.Submachine
module Load_index = Pmp_index.Load_index

(* a power of two, so the ring slot of write [w] is [w land (size - 1)] *)
let journal_size = 64

type t = {
  tbl : (Task.id, Task.t * Placement.t) Hashtbl.t;
  ring : int array;  (** write [w] stored its id at [w mod journal_size] *)
  mutable writes : int;
  mutable view : Load_index.t option;  (** built by the first {!loads} *)
}

let create n =
  {
    tbl = Hashtbl.create n;
    ring = Array.make journal_size 0;
    writes = 0;
    view = None;
  }

let journal t id =
  t.ring.(t.writes land (journal_size - 1)) <- id;
  t.writes <- t.writes + 1

(* With a view, [mem] first: a task's first placement, the common
   write, raises nothing and allocates no option, and [add] binds it
   without [replace]'s second search. *)
let replace t (task : Task.t) (p : Placement.t) =
  (match t.view with
  | None -> Hashtbl.replace t.tbl task.id (task, p)
  | Some v ->
      if Hashtbl.mem t.tbl task.id then begin
        let _, (old : Placement.t) = Hashtbl.find t.tbl task.id in
        if not (Sub.equal old.sub p.sub) then begin
          Load_index.range_add v old.sub (-1);
          Load_index.range_add v p.sub 1
        end;
        Hashtbl.replace t.tbl task.id (task, p)
      end
      else begin
        Load_index.range_add v p.sub 1;
        Hashtbl.add t.tbl task.id (task, p)
      end);
  journal t task.id

let remove t id =
  let ((_, (p : Placement.t)) as entry) = Hashtbl.find t.tbl id in
  (match t.view with None -> () | Some v -> Load_index.range_add v p.sub (-1));
  Hashtbl.remove t.tbl id;
  journal t id;
  entry

let loads t m =
  match t.view with
  | Some v -> v
  | None ->
      let v = Load_index.create m in
      Hashtbl.iter
        (fun _ (_, (p : Placement.t)) -> Load_index.range_add v p.sub 1)
        t.tbl;
      t.view <- Some v;
      v

let find t id = Hashtbl.find t.tbl id
let find_opt t id = Hashtbl.find_opt t.tbl id

(* [find] + handler rather than [Option.map snd << find_opt]: one
   [Some] instead of two on the daemon's query fast path *)
let placement t id =
  match Hashtbl.find t.tbl id with
  | _, p -> Some p
  | exception Not_found -> None
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
