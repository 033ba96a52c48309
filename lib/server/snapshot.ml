module Json = Pmp_util.Json
module Cluster = Pmp_cluster.Cluster
module Event = Pmp_workload.Event
module Realloc = Pmp_core.Realloc

type t = {
  seq : int;
  machine_size : int;
  policy : Cluster.policy;
  admission_cap : float option;
  next_id : int;
  submitted : int;
  completed : int;
  events : Event.t list;
  queued : (int * int) list;
}

let d_to_string = function
  | Realloc.Every -> "0"
  | Realloc.Budget b -> string_of_int b
  | Realloc.Never -> "inf"

let d_of_string s =
  match s with
  | "inf" -> Ok Realloc.Never
  | _ -> (
      match int_of_string_opt s with
      | Some v when v >= 0 -> Ok (Realloc.make_budget v)
      | Some _ | None -> Error (Printf.sprintf "bad d value %S" s))

let policy_to_string = function
  | Cluster.Greedy -> "greedy"
  | Cluster.Copies -> "copies"
  | Cluster.Optimal -> "optimal"
  | Cluster.Periodic d -> "periodic:" ^ d_to_string d
  | Cluster.Hybrid d -> "hybrid:" ^ d_to_string d
  | Cluster.Randomized seed -> "randomized:" ^ string_of_int seed

let ( let* ) = Result.bind

let policy_of_string s =
  match String.split_on_char ':' s with
  | [ "greedy" ] -> Ok Cluster.Greedy
  | [ "copies" ] -> Ok Cluster.Copies
  | [ "optimal" ] -> Ok Cluster.Optimal
  | [ "periodic"; d ] ->
      let* d = d_of_string d in
      Ok (Cluster.Periodic d)
  | [ "hybrid"; d ] ->
      let* d = d_of_string d in
      Ok (Cluster.Hybrid d)
  | [ "randomized"; seed ] -> (
      match int_of_string_opt seed with
      | Some seed -> Ok (Cluster.Randomized seed)
      | None -> Error (Printf.sprintf "bad randomized seed %S" seed))
  | _ -> Error (Printf.sprintf "unknown policy %S" s)

let of_cluster ~seq ~admission_cap cluster =
  let stats = Cluster.stats cluster in
  {
    seq;
    machine_size = Cluster.machine_size cluster;
    policy = Cluster.policy cluster;
    admission_cap;
    next_id = Cluster.next_id cluster;
    submitted = stats.Cluster.submitted;
    completed = stats.Cluster.completed;
    events = Cluster.events cluster;
    queued = Cluster.queued_tasks cluster;
  }

let restore t =
  Cluster.restore ~machine_size:t.machine_size ~policy:t.policy
    ~admission_cap:t.admission_cap ~events:t.events ~queued:t.queued
    ~next_id:t.next_id ~submitted:t.submitted ~completed:t.completed ()

let num n = Json.Num (float_of_int n)

let to_json t =
  Json.Obj
    [
      ("format", num 1);
      ("seq", num t.seq);
      ("machine_size", num t.machine_size);
      ("policy", Json.Str (policy_to_string t.policy));
      ( "admission_cap",
        match t.admission_cap with None -> Json.Null | Some c -> Json.Num c );
      ("next_id", num t.next_id);
      ("submitted", num t.submitted);
      ("completed", num t.completed);
      ( "events",
        Json.Arr (List.map (fun e -> Json.Str (Event.to_string e)) t.events) );
      ( "queued",
        Json.Arr
          (List.map (fun (id, size) -> Json.Arr [ num id; num size ]) t.queued)
      );
    ]

let int_field v name =
  match Option.bind (Json.member name v) Json.to_int with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "missing integer field %S" name)

let of_json v =
  let* seq = int_field v "seq" in
  let* machine_size = int_field v "machine_size" in
  let* policy =
    match Option.bind (Json.member "policy" v) Json.to_str with
    | Some s -> policy_of_string s
    | None -> Error "missing string field \"policy\""
  in
  let* admission_cap =
    match Json.member "admission_cap" v with
    | Some Json.Null | None -> Ok None
    | Some (Json.Num c) -> Ok (Some c)
    | Some _ -> Error "bad admission_cap"
  in
  let* next_id = int_field v "next_id" in
  let* submitted = int_field v "submitted" in
  let* completed = int_field v "completed" in
  let* events =
    match Option.bind (Json.member "events" v) Json.to_list with
    | None -> Error "missing array field \"events\""
    | Some elems ->
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            match Json.to_str e with
            | None -> Error "non-string event"
            | Some s ->
                let* ev = Event.of_string s in
                Ok (ev :: acc))
          (Ok []) elems
        |> Result.map List.rev
  in
  let* queued =
    match Option.bind (Json.member "queued" v) Json.to_list with
    | None -> Error "missing array field \"queued\""
    | Some elems ->
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            match e with
            | Json.Arr [ id; size ] -> (
                match (Json.to_int id, Json.to_int size) with
                | Some id, Some size -> Ok ((id, size) :: acc)
                | _ -> Error "non-integer queued entry")
            | _ -> Error "bad queued entry")
          (Ok []) elems
        |> Result.map List.rev
  in
  Ok
    {
      seq;
      machine_size;
      policy;
      admission_cap;
      next_id;
      submitted;
      completed;
      events;
      queued;
    }

let file_of_seq seq = Printf.sprintf "snapshot-%010d.json" seq

let seq_of_file name =
  match Scanf.sscanf_opt name "snapshot-%d.json%!" Fun.id with
  | Some seq when name = file_of_seq seq -> Some seq
  | _ -> None

(* A rename is durable only once the directory holding it is fsynced.
   The caller truncates the WAL as soon as [save] returns; without this
   a power loss could bring back the old directory (no new snapshot)
   with the WAL already empty, losing acked mutations. *)
let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let save ~dir t =
  let path = Filename.concat dir (file_of_seq t.seq) in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string ~indent:2 (to_json t));
      output_char oc '\n';
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  fsync_dir dir;
  path

let load path =
  match Json.of_file path with
  | v -> of_json v
  | exception Json.Parse_error e -> Error ("bad snapshot json: " ^ e)
  | exception Sys_error e -> Error e

let latest ~dir =
  if not (Sys.file_exists dir) then None
  else
    Array.fold_left
      (fun best name ->
        match seq_of_file name with
        | Some seq when (match best with None -> true | Some (_, s) -> seq > s)
          ->
            Some (Filename.concat dir name, seq)
        | _ -> best)
      None (Sys.readdir dir)

let prune ~dir ~keep =
  Array.iter
    (fun name ->
      match seq_of_file name with
      | Some seq when seq < keep -> (
          (* one that cannot be removed only wastes space *)
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      | Some _ | None -> ())
    (Sys.readdir dir)
