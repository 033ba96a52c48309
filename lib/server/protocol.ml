module Cluster = Pmp_cluster.Cluster

type placement = { base : int; size : int; copy : int }

type request =
  | Submit of int
  | Finish of int
  | Query of int
  | Stats
  | Loads
  | Metrics
  | Snapshot
  | Ping
  | Health
  | Shutdown

type task_state = Active of placement | Queued_task | Unknown

type health = {
  ready : bool;
  uptime_ms : int;
  seq : int;
  recovered_ops : int;
}

type response =
  | Placed of int * placement
  | Queued of int
  | Finished
  | State of int * task_state
  | Stats_reply of Cluster.stats
  | Loads_reply of int array
  | Metrics_reply of string
  | Snapshot_reply of string
  | Pong
  | Health_reply of health
  | Bye
  | Error of string

let placement_of_core (p : Pmp_core.Placement.t) =
  {
    base = Pmp_machine.Submachine.first_leaf p.Pmp_core.Placement.sub;
    size = Pmp_machine.Submachine.size p.Pmp_core.Placement.sub;
    copy = p.Pmp_core.Placement.copy;
  }

(* ------------------------------------------------------------------ *)
(* encoding                                                            *)

(* Payloads open with an opcode (requests) or status tag (responses);
   every integer is a varint, every string is varint length + bytes.
   Frame wraps each payload in its header. *)

let op_submit = 1
let op_finish = 2
let op_query = 3
let op_stats = 4
let op_loads = 5
let op_metrics = 6
let op_snapshot = 7
let op_ping = 8
let op_shutdown = 9
let op_health = 10

let op_tagged = 11
(* wrapper: varint rid, then the inner request payload (not itself tagged) *)

let st_error = 0
let st_placed = 1
let st_queued = 2
let st_finished = 3
let st_state = 4
let st_stats = 5
let st_loads = 6
let st_metrics = 7
let st_snapshot = 8
let st_pong = 9
let st_bye = 10
let st_health = 11

let st_tagged = 12
(* wrapper: varint rid, then the inner response payload (not itself tagged) *)

let st_shard_tagged = 13
(* wrapper: varint rid, varint shard, then the inner response payload
   (not itself tagged). Emitted by the federation router so a client
   can attribute a rid-tagged response to the shard that served it. *)

let add_tag buf t = Buffer.add_char buf (Char.chr t)

let add_len_string buf s =
  Wire.add_varint buf (String.length s);
  Buffer.add_string buf s

let opcode = function
  | Submit _ -> op_submit
  | Finish _ -> op_finish
  | Query _ -> op_query
  | Stats -> op_stats
  | Loads -> op_loads
  | Metrics -> op_metrics
  | Snapshot -> op_snapshot
  | Ping -> op_ping
  | Shutdown -> op_shutdown
  | Health -> op_health

let request_payload buf r =
  add_tag buf (opcode r);
  match r with
  | Submit n | Finish n | Query n -> Wire.add_varint buf n
  | Stats | Loads | Metrics | Snapshot | Ping | Health | Shutdown -> ()

let request_payload_rid buf ~rid r =
  add_tag buf op_tagged;
  Wire.add_varint buf rid;
  request_payload buf r

let add_placement buf ~base ~size ~copy =
  Wire.add_varint buf base;
  Wire.add_varint buf size;
  Wire.add_varint buf copy

let add_placed buf id ~base ~size ~copy =
  add_tag buf st_placed;
  Wire.add_varint buf id;
  add_placement buf ~base ~size ~copy

let add_queued buf id =
  add_tag buf st_queued;
  Wire.add_varint buf id

let add_finished buf = add_tag buf st_finished

(* a query's answer: the state tag after the id is 0 unknown, 1 queued,
   2 active with its placement *)
let add_state buf id st =
  add_tag buf st_state;
  Wire.add_varint buf id;
  add_tag buf st

let add_active buf id ~base ~size ~copy =
  add_state buf id 2;
  add_placement buf ~base ~size ~copy

let add_queued_task buf id = add_state buf id 1
let add_unknown buf id = add_state buf id 0

let add_stats buf (s : Cluster.stats) =
  add_tag buf st_stats;
  Wire.add_varint buf s.Cluster.submitted;
  Wire.add_varint buf s.Cluster.completed;
  Wire.add_varint buf s.Cluster.queued_now;
  Wire.add_varint buf s.Cluster.active_now;
  Wire.add_varint buf s.Cluster.active_size;
  Wire.add_varint buf s.Cluster.max_load;
  Wire.add_varint buf s.Cluster.peak_load;
  Wire.add_varint buf s.Cluster.optimal_now;
  Wire.add_varint buf s.Cluster.reallocations;
  Wire.add_varint buf s.Cluster.tasks_migrated

let add_error buf e =
  add_tag buf st_error;
  add_len_string buf e

let add_rid buf rid =
  add_tag buf st_tagged;
  Wire.add_varint buf rid

let response_payload buf = function
  | Placed (id, p) -> add_placed buf id ~base:p.base ~size:p.size ~copy:p.copy
  | Queued id -> add_queued buf id
  | Finished -> add_finished buf
  | State (id, Active p) -> add_active buf id ~base:p.base ~size:p.size ~copy:p.copy
  | State (id, Queued_task) -> add_queued_task buf id
  | State (id, Unknown) -> add_unknown buf id
  | Stats_reply s -> add_stats buf s
  | Loads_reply loads ->
      add_tag buf st_loads;
      Wire.add_varint buf (Array.length loads);
      Array.iter (fun l -> Wire.add_varint buf l) loads
  | Metrics_reply text ->
      add_tag buf st_metrics;
      add_len_string buf text
  | Snapshot_reply path ->
      add_tag buf st_snapshot;
      add_len_string buf path
  | Pong -> add_tag buf st_pong
  | Health_reply h ->
      add_tag buf st_health;
      add_tag buf (if h.ready then 1 else 0);
      Wire.add_varint buf h.uptime_ms;
      Wire.add_varint buf h.seq;
      Wire.add_varint buf h.recovered_ops
  | Bye -> add_tag buf st_bye
  | Error e -> add_error buf e

let response_payload_rid buf ~rid ?shard r =
  (match shard with
  | None -> add_rid buf rid
  | Some s ->
      add_tag buf st_shard_tagged;
      Wire.add_varint buf rid;
      Wire.add_varint buf s);
  response_payload buf r

let add_frame = Frame.add_to_buffer

let encode_binary encode_payload v =
  let payload = Buffer.create 32 in
  encode_payload payload v;
  let buf = Buffer.create (Buffer.length payload + 8) in
  add_frame buf payload;
  Buffer.contents buf

let encode_request_binary ?rid r =
  match rid with
  | None -> encode_binary request_payload r
  | Some n -> encode_binary (fun buf r -> request_payload_rid buf ~rid:n r) r

let encode_response_binary ?rid ?shard r =
  match rid with
  | None -> encode_binary response_payload r
  | Some n -> encode_binary (fun buf r -> response_payload_rid buf ~rid:n ?shard r) r

(* --- binary decoding ---------------------------------------------- *)

let get_len_string s pos limit =
  let n, pos = Wire.get_varint_string s pos limit in
  if n < 0 || pos + n > limit then raise (Wire.Corrupt "truncated string")
  else (String.sub s pos n, pos + n)

let decoded limit pos v =
  if pos <> limit then Result.Error "trailing bytes in frame" else Ok v

(* --- reading a request in place ----------------------------------- *)

type op = Op_submit | Op_finish | Op_query | Op of request

type slot = {
  cur : Wire.cursor;
  mutable opcode : int;
  mutable tagged : bool;
  mutable rid : int;
  mutable size : int;
  mutable id : int;
}

let slot () =
  { cur = { Wire.pos = 0 }; opcode = 0; tagged = false; rid = 0; size = 0; id = 0 }

let corrupt e = raise (Wire.Corrupt e)

(* The request fields end the payload; [opcode] becomes the request's
   only once it has read whole. *)
let read_end slot limit opcode op =
  if slot.cur.Wire.pos <> limit then corrupt "trailing bytes in frame";
  slot.opcode <- opcode;
  op

(* Allocates nothing but the text of a refusal: the nullary requests
   are constants, and the argument of the other three lands in [slot]. *)
let read_request slot b ~pos ~limit =
  let cur = slot.cur in
  slot.size <- 0;
  slot.opcode <- (if pos < limit then Char.code (Bytes.unsafe_get b pos) else 0);
  slot.tagged <- slot.opcode = op_tagged;
  if pos >= limit then corrupt "truncated frame";
  cur.Wire.pos <- pos + 1;
  (* the rid wrapper, peeled one level only so that it cannot nest *)
  let op =
    if not slot.tagged then slot.opcode
    else begin
      slot.rid <- Wire.read_varint b cur limit;
      let pos = cur.Wire.pos in
      if pos >= limit then corrupt "truncated frame";
      cur.Wire.pos <- pos + 1;
      Char.code (Bytes.unsafe_get b pos)
    end
  in
  match op with
  | 1 ->
      let size = Wire.read_varint b cur limit in
      let r = read_end slot limit op Op_submit in
      slot.size <- size;
      r
  | 2 ->
      slot.id <- Wire.read_varint b cur limit;
      read_end slot limit op Op_finish
  | 3 ->
      slot.id <- Wire.read_varint b cur limit;
      read_end slot limit op Op_query
  | 4 -> read_end slot limit op (Op Stats)
  | 5 -> read_end slot limit op (Op Loads)
  | 6 -> read_end slot limit op (Op Metrics)
  | 7 -> read_end slot limit op (Op Snapshot)
  | 8 -> read_end slot limit op (Op Ping)
  | 9 -> read_end slot limit op (Op Shutdown)
  | 10 -> read_end slot limit op (Op Health)
  | op -> corrupt (Printf.sprintf "unknown binary opcode %d" op)

let decode_request_payload_rid s ~pos ~limit =
  let slot = slot () in
  match read_request slot (Bytes.unsafe_of_string s) ~pos ~limit with
  | op ->
      let r =
        match op with
        | Op_submit -> Submit slot.size
        | Op_finish -> Finish slot.id
        | Op_query -> Query slot.id
        | Op r -> r
      in
      Ok (r, if slot.tagged then Some slot.rid else None)
  | exception Wire.Corrupt e -> Result.Error e

let decode_request_payload s ~pos ~limit =
  Result.map fst (decode_request_payload_rid s ~pos ~limit)

let get_binary_placement s pos limit =
  let base, pos = Wire.get_varint_string s pos limit in
  let size, pos = Wire.get_varint_string s pos limit in
  let copy, pos = Wire.get_varint_string s pos limit in
  ({ base; size; copy }, pos)

(* Tags 0..11 only; [st_tagged] is peeled one level above. *)
let decode_response_plain s ~pos ~limit =
  let tag = Char.code s.[pos] in
  let pos = pos + 1 in
  match tag with
  | 0 ->
        let e, pos = get_len_string s pos limit in
        decoded limit pos (Error e)
    | 1 ->
        let id, pos = Wire.get_varint_string s pos limit in
        let p, pos = get_binary_placement s pos limit in
        decoded limit pos (Placed (id, p))
    | 2 ->
        let id, pos = Wire.get_varint_string s pos limit in
        decoded limit pos (Queued id)
    | 3 -> decoded limit pos Finished
    | 4 -> begin
        let id, pos = Wire.get_varint_string s pos limit in
        let st = Char.code s.[pos] in
        let pos = pos + 1 in
        match st with
        | 0 -> decoded limit pos (State (id, Unknown))
        | 1 -> decoded limit pos (State (id, Queued_task))
        | 2 ->
            let p, pos = get_binary_placement s pos limit in
            decoded limit pos (State (id, Active p))
        | st -> Result.Error (Printf.sprintf "unknown task-state tag %d" st)
      end
    | 5 ->
        let submitted, pos = Wire.get_varint_string s pos limit in
        let completed, pos = Wire.get_varint_string s pos limit in
        let queued_now, pos = Wire.get_varint_string s pos limit in
        let active_now, pos = Wire.get_varint_string s pos limit in
        let active_size, pos = Wire.get_varint_string s pos limit in
        let max_load, pos = Wire.get_varint_string s pos limit in
        let peak_load, pos = Wire.get_varint_string s pos limit in
        let optimal_now, pos = Wire.get_varint_string s pos limit in
        let reallocations, pos = Wire.get_varint_string s pos limit in
        let tasks_migrated, pos = Wire.get_varint_string s pos limit in
        decoded limit pos
          (Stats_reply
             {
               Cluster.submitted;
               completed;
               queued_now;
               active_now;
               active_size;
               max_load;
               peak_load;
               optimal_now;
               reallocations;
               tasks_migrated;
             })
    | 6 ->
        let n, pos = Wire.get_varint_string s pos limit in
        if n < 0 || n > limit - pos then Result.Error "bad loads count"
        else begin
          let loads = Array.make n 0 in
          let pos = ref pos in
          for i = 0 to n - 1 do
            let v, pos' = Wire.get_varint_string s !pos limit in
            loads.(i) <- v;
            pos := pos'
          done;
          decoded limit !pos (Loads_reply loads)
        end
    | 7 ->
        let text, pos = get_len_string s pos limit in
        decoded limit pos (Metrics_reply text)
    | 8 ->
        let path, pos = get_len_string s pos limit in
        decoded limit pos (Snapshot_reply path)
    | 9 -> decoded limit pos Pong
    | 10 -> decoded limit pos Bye
    | 11 ->
        let ready = Char.code s.[pos] in
        let pos = pos + 1 in
        if ready > 1 then
          Result.Error (Printf.sprintf "bad health ready flag %d" ready)
        else begin
          let uptime_ms, pos = Wire.get_varint_string s pos limit in
          let seq, pos = Wire.get_varint_string s pos limit in
          let recovered_ops, pos = Wire.get_varint_string s pos limit in
          decoded limit pos
            (Health_reply { ready = ready = 1; uptime_ms; seq; recovered_ops })
        end
    | tag -> Result.Error (Printf.sprintf "unknown binary status tag %d" tag)

let decode_response_payload_attr s ~pos ~limit =
  match
    let tag = Char.code s.[pos] in
    if tag = st_tagged then begin
      let rid, pos = Wire.get_varint_string s (pos + 1) limit in
      if pos >= limit then Result.Error "truncated frame"
      else
        match decode_response_plain s ~pos ~limit with
        | Ok r -> Ok (r, Some rid, None)
        | Result.Error e -> Result.Error e
    end
    else if tag = st_shard_tagged then begin
      let rid, pos = Wire.get_varint_string s (pos + 1) limit in
      let shard, pos = Wire.get_varint_string s pos limit in
      if pos >= limit then Result.Error "truncated frame"
      else
        match decode_response_plain s ~pos ~limit with
        | Ok r -> Ok (r, Some rid, Some shard)
        | Result.Error e -> Result.Error e
    end
    else begin
      match decode_response_plain s ~pos ~limit with
      | Ok r -> Ok (r, None, None)
      | Result.Error e -> Result.Error e
    end
  with
  | r -> r
  | exception Wire.Corrupt e -> Result.Error e
  | exception Invalid_argument _ -> Result.Error "truncated frame"

let decode_response_payload s ~pos ~limit =
  Result.map
    (fun (r, _rid, _shard) -> r)
    (decode_response_payload_attr s ~pos ~limit)

(* Decode one complete frame held in [s] (header included). A fresh
   buffer starts at offset 0, so the span [Frame.read] leaves indexes
   [s] itself. A frame that [s] does not hold exactly (cut short, or
   with bytes behind it) is a length mismatch. *)
let decode_frame decode_payload s =
  let nb = Netbuf.create (String.length s) in
  Netbuf.add_string nb s;
  let r = Frame.reader () in
  match Frame.read r nb with
  | Frame.Frame when Netbuf.is_empty nb ->
      decode_payload s ~pos:r.Frame.pos ~limit:r.Frame.limit
  | Frame.Refused -> Result.Error r.Frame.refusal
  | Frame.Incomplete when String.length s < 3 -> Result.Error "truncated frame"
  | Frame.Frame | Frame.Incomplete -> Result.Error "frame length mismatch"

let decode_request_binary s = decode_frame decode_request_payload s
let decode_response_binary s = decode_frame decode_response_payload s

let request_of_command line =
  let int_arg name v k =
    match int_of_string_opt v with
    | Some n -> `Request (k n)
    | None -> `Error (Printf.sprintf "bad %s %S" name v)
  in
  match
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  with
  | [] -> `Blank
  | [ "quit" ] | [ "exit" ] -> `Quit
  | [ "submit"; size ] -> int_arg "size" size (fun n -> Submit n)
  | [ "finish"; id ] -> int_arg "id" id (fun n -> Finish n)
  | [ "query"; id ] -> int_arg "id" id (fun n -> Query n)
  | [ "stats" ] -> `Request Stats
  | [ "loads" ] -> `Request Loads
  | [ "metrics" ] -> `Request Metrics
  | [ "snapshot" ] -> `Request Snapshot
  | [ "ping" ] -> `Request Ping
  | [ "health" ] -> `Request Health
  | [ "shutdown" ] -> `Request Shutdown
  | _ ->
      `Error
        "commands: submit <size> | finish <id> | query <id> | stats | loads \
         | metrics | snapshot | ping | health | shutdown | quit"

let render_response = function
  | Placed (id, p) ->
      Printf.sprintf "placed %d at [%d..%d) copy %d" id p.base (p.base + p.size)
        p.copy
  | Queued id -> Printf.sprintf "queued %d" id
  | Finished -> "finished"
  | State (id, Active p) ->
      Printf.sprintf "task %d active at [%d..%d) copy %d" id p.base
        (p.base + p.size) p.copy
  | State (id, Queued_task) -> Printf.sprintf "task %d queued" id
  | State (id, Unknown) -> Printf.sprintf "task %d unknown" id
  | Stats_reply s ->
      Printf.sprintf
        "submitted=%d completed=%d active=%d (size %d) queued=%d load=%d \
         (peak %d, opt %d) reallocs=%d moved=%d"
        s.Cluster.submitted s.Cluster.completed s.Cluster.active_now
        s.Cluster.active_size s.Cluster.queued_now s.Cluster.max_load
        s.Cluster.peak_load s.Cluster.optimal_now s.Cluster.reallocations
        s.Cluster.tasks_migrated
  | Loads_reply loads ->
      String.concat " " (Array.to_list (Array.map string_of_int loads))
  | Metrics_reply text -> text
  | Snapshot_reply path -> "snapshot written to " ^ path
  | Pong -> "pong"
  | Health_reply h ->
      Printf.sprintf "%s uptime=%dms seq=%d recovered_ops=%d"
        (if h.ready then "ready" else "not ready")
        h.uptime_ms h.seq h.recovered_ops
  | Bye -> "bye"
  | Error e -> "error: " ^ e

let answer c = function
  | Submit size -> (
      match Cluster.submit c ~size with
      | Ok (Cluster.Placed (id, p)) -> Placed (id, placement_of_core p)
      | Ok (Cluster.Queued id) -> Queued id
      | Result.Error e -> Error e)
  | Finish id -> (
      match Cluster.finish c id with
      | Ok () -> Finished
      | Result.Error e -> Error e)
  | Query id ->
      State
        ( id,
          match Cluster.placement c id with
          | Some p -> Active (placement_of_core p)
          | None -> if Cluster.is_queued c id then Queued_task else Unknown )
  | Stats -> Stats_reply (Cluster.stats c)
  | Loads -> Loads_reply (Cluster.leaf_loads c)
  | Metrics | Snapshot | Ping | Health | Shutdown ->
      Error "a bare cluster answers only submit, finish, query, stats and loads"
