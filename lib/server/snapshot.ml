module Cluster = Pmp_cluster.Cluster
module Allocator = Pmp_core.Allocator
module Realloc = Pmp_core.Realloc
module Sub = Pmp_machine.Submachine
module Task = Pmp_workload.Task

type t = {
  seq : int;
  machine_size : int;
  policy : Cluster.policy;
  admission_cap : float option;
  state : Cluster.state;
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
  {
    seq;
    machine_size = Cluster.machine_size cluster;
    policy = Cluster.policy cluster;
    admission_cap;
    state = Cluster.export cluster;
  }

let restore t =
  Cluster.import ~machine_size:t.machine_size ~policy:t.policy
    ~admission_cap:t.admission_cap t.state

(* ------------------------------------------------------------------ *)
(* the binary record                                                   *)

(* "PMPS", a version byte, the body as Wire varints (two int64s raw,
   little-endian), then the MD5 of everything before it. *)
let magic = "PMPS"
let format_version = 1
let digest_len = 16

let encode t =
  let b = Buffer.create 256 in
  let v = Wire.add_varint b in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr format_version);
  v t.seq;
  v t.machine_size;
  let policy = policy_to_string t.policy in
  v (String.length policy);
  Buffer.add_string b policy;
  (match t.admission_cap with
  | None -> v 0
  | Some cap ->
      v 1;
      Buffer.add_int64_le b (Int64.bits_of_float cap));
  let st = t.state in
  List.iter v
    [ st.next_id; st.submitted; st.completed; st.peak_load; st.tasks_migrated ];
  v st.alloc.Allocator.arrived;
  v st.alloc.Allocator.repacks;
  Buffer.add_int64_le b st.alloc.Allocator.rng;
  v (List.length st.queued);
  List.iter
    (fun (id, size) ->
      v id;
      v size)
    st.queued;
  (* ascending ids go as gaps, one byte each under steady churn *)
  v (List.length st.alloc.Allocator.tasks);
  ignore
    (List.fold_left
       (fun prev ((task : Task.t), (p : Pmp_core.Placement.t)) ->
         v (task.id - prev);
         v task.size;
         v p.copy;
         v (Sub.first_leaf p.sub);
         task.id)
       (-1) st.alloc.Allocator.tasks);
  Buffer.add_string b (Digest.string (Buffer.contents b));
  Buffer.contents b

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let decode_body s limit =
  let pos = ref (String.length magic + 1) in
  let int () =
    let n, p = Wire.get_varint_string s !pos limit in
    pos := p;
    n
  in
  let int64 () =
    if !pos + 8 > limit then bad "truncated";
    let x = String.get_int64_le s !pos in
    pos := !pos + 8;
    x
  in
  let count () =
    (* entries take at least a byte each: a larger count is corrupt,
       and is refused before anything is allocated for it *)
    let n = int () in
    if n < 0 || n > limit - !pos then bad "bad entry count %d" n;
    n
  in
  let seq = int () in
  let machine_size = int () in
  let policy_len = count () in
  let policy =
    match policy_of_string (String.sub s !pos policy_len) with
    | Ok p ->
        pos := !pos + policy_len;
        p
    | Error e -> bad "%s" e
  in
  let admission_cap =
    match int () with
    | 0 -> None
    | 1 -> Some (Int64.float_of_bits (int64 ()))
    | n -> bad "bad admission cap tag %d" n
  in
  let next_id = int () in
  let submitted = int () in
  let completed = int () in
  let peak_load = int () in
  let tasks_migrated = int () in
  let arrived = int () in
  let repacks = int () in
  let rng = int64 () in
  let queued =
    List.init (count ()) (fun _ ->
        let id = int () in
        let size = int () in
        (id, size))
  in
  (* only what a (task, placement) pair cannot represent is checked
     here; Allocator.check_state judges the rest *)
  let prev = ref (-1) in
  let tasks =
    List.init (count ()) (fun _ ->
        let id = !prev + int () in
        let size = int () in
        let copy = int () in
        let first_leaf = int () in
        prev := id;
        if not (Pmp_util.Pow2.is_pow2 size) then
          bad "task %d has size %d, not a power of two" id size;
        if first_leaf land (size - 1) <> 0 then
          bad "task %d of size %d is placed at leaf %d, not aligned to its size"
            id size first_leaf;
        let order = Pmp_util.Pow2.ilog2 size in
        ( { Task.id; size },
          { Pmp_core.Placement.copy; sub = { Sub.order; index = first_leaf asr order } } ))
  in
  if !pos <> limit then bad "%d trailing bytes" (limit - !pos);
  {
    seq;
    machine_size;
    policy;
    admission_cap;
    state =
      {
        Cluster.next_id;
        submitted;
        completed;
        peak_load;
        tasks_migrated;
        queued;
        alloc = { Allocator.tasks; arrived; repacks; rng };
      };
  }

let decode s =
  let n = String.length s in
  let header = String.length magic + 1 in
  if n < header + digest_len || String.sub s 0 (String.length magic) <> magic
  then Error "not a pmp snapshot"
  else if Char.code s.[String.length magic] <> format_version then
    Error
      (Printf.sprintf "unsupported snapshot format version %d"
         (Char.code s.[String.length magic]))
  else begin
    let limit = n - digest_len in
    if Digest.substring s 0 limit <> String.sub s limit digest_len then
      Error "checksum mismatch: the snapshot is corrupt"
    else
      match decode_body s limit with
      | t -> Ok t
      | exception Bad m -> Error m
      | exception Wire.Corrupt m -> Error m
  end

(* ------------------------------------------------------------------ *)
(* files                                                               *)

let file_of_seq seq = Printf.sprintf "snapshot-%010d.bin" seq

let seq_of_file name =
  match Scanf.sscanf_opt name "snapshot-%d.bin%!" Fun.id with
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
  let oc = open_out_bin tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         output_string oc (encode t);
         flush oc;
         Unix.fsync (Unix.descr_of_out_channel oc));
     Sys.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  fsync_dir dir;
  path

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Result.map_error (fun e -> path ^ ": " ^ e) (decode s)
  | exception Sys_error e -> Error e

let entries dir = try Sys.readdir dir with Sys_error _ -> [||]

let latest ~dir =
  Array.fold_left
    (fun best name ->
      match seq_of_file name with
      | Some seq when (match best with None -> true | Some (_, s) -> seq > s)
        ->
          Some (Filename.concat dir name, seq)
      | _ -> best)
    None (entries dir)

let legacy ~dir =
  Array.find_map
    (fun name ->
      match Scanf.sscanf_opt name "snapshot-%d.json%!" Fun.id with
      | Some _ -> Some (Filename.concat dir name)
      | None -> None)
    (entries dir)

let prune ~dir ~keep =
  Array.iter
    (fun name ->
      let stale =
        match seq_of_file name with
        | Some seq -> seq < keep
        | None ->
            String.starts_with ~prefix:"snapshot-" name
            && Filename.check_suffix name ".tmp"
      in
      (* one that cannot be removed only wastes space *)
      if stale then try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (entries dir)
