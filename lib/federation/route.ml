module Protocol = Pmp_server.Protocol
module Cluster = Pmp_cluster.Cluster
module Sharding = Pmp_util.Sharding

type call = int -> Protocol.request -> (Protocol.response, string) result

(* A ledger entry is the overlay over the {!Sharding} id arithmetic:
   where the task lives *now*, which can differ from its birth shard
   after failover re-admission or a rebalance move. *)
type entry = {
  mutable shard : int;
  mutable local : int;
  size : int;
  tenant : int;
  mutable queued : bool;
}

type pending =
  | Submit_on of { sx : int; size : int; tenant : int }
  | Finish_on of { gid : int; e : entry; freed : int }
  | Query_on of { gid : int; e : entry }
  | Birth_on of { gid : int; sx : int; finish : bool }

type issued =
  | Answer of Protocol.response * int option
  | Call of int * Protocol.request * pending

type counts = {
  routed : int array;
  mutable rejects : int;
  mutable readmitted : int;
  mutable rebalanced : int;
  mutable rebalanced_bytes : int;
  mutable audit_failures : int;
}

type t = {
  shard_sizes : int array;
  offsets : int array;  (** first aggregate leaf per shard *)
  quota : int option;
  index : Fed_index.t;
  ledger : (int, entry) Hashtbl.t;
  landed : (int, unit) Hashtbl.t;
      (** the slots moved tasks occupy now, as ids: no client's *)
  used : (int, int) Hashtbl.t;  (** admitted PEs per tenant, when > 0 *)
  finishing : (int, unit) Hashtbl.t;  (** gids whose finish is in flight *)
  mutable submits : int;  (** submits in flight *)
  counts : counts;
}

let create ~shard_sizes ~capacities ~quota =
  let m = Array.length shard_sizes in
  if m < 1 then Error "federation needs at least one shard, got 0"
  else
    let offsets = Array.make m 0 in
    for s = 1 to m - 1 do
      offsets.(s) <- offsets.(s - 1) + shard_sizes.(s - 1)
    done;
    Ok
      {
        shard_sizes;
        offsets;
        quota;
        index = Fed_index.create ~shard_sizes ~capacities;
        ledger = Hashtbl.create 1024;
        landed = Hashtbl.create 16;
        used = Hashtbl.create 16;
        finishing = Hashtbl.create 16;
        submits = 0;
        counts =
          {
            routed = Array.make m 0;
            rejects = 0;
            readmitted = 0;
            rebalanced = 0;
            rebalanced_bytes = 0;
            audit_failures = 0;
          };
      }

let shards t = Array.length t.shard_sizes
let up t sx = Fed_index.up t.index sx
let load t sx = Fed_index.load t.index sx
let counts t = t.counts
let tenants t = Hashtbl.length t.used
let used t tenant = Option.value (Hashtbl.find_opt t.used tenant) ~default:0

(* A tenant back at zero is dropped: tenant ids are never reused, so
   keeping it would leak one entry per connection. *)
let add_used t tenant delta =
  match used t tenant + delta with
  | 0 -> Hashtbl.remove t.used tenant
  | n -> Hashtbl.replace t.used tenant n

let observe t sx (s : Cluster.stats) =
  Fed_index.observe t.index sx ~max_load:s.Cluster.max_load
    ~active_size:s.Cluster.active_size

(* The id the arithmetic gives a task's current home: its own until it
   moves, then the slot it landed in. *)
let slot t e = Sharding.global_id ~shards:(shards t) ~shard:e.shard e.local

(* Re-home a task after a failover re-admission or a rebalance move. *)
let move t e ~shard ~local ~queued =
  Hashtbl.remove t.landed (slot t e);
  e.shard <- shard;
  e.local <- local;
  e.queued <- queued;
  Hashtbl.replace t.landed (slot t e) ()

(* ------------------------------------------------------------------ *)
(* submits                                                             *)

(* Pick a submit's shard and note the placement in the index up front,
   so later picks in the same batch see it. *)
let pick t ~size =
  let sx = Fed_index.pick t.index ~size in
  Option.iter (fun sx -> Fed_index.note_submit t.index sx ~size) sx;
  sx

(* Once the shard has answered (or failed): only a placement keeps the
   optimistic load. *)
let settle_pick t sx ~size = function
  | Ok (Protocol.Placed _) -> ()
  | Ok _ | Error _ -> Fed_index.note_finish t.index sx ~size

let no_host size = Printf.sprintf "no shard can host size %d" size

(* Route one submit a call at a time, failing over: a shard that dies
   mid-request has been marked down by [call] (which re-admits its
   queued backlog), so the next pick skips it. *)
let route_submit t ~call ~size =
  let rec attempt tries =
    if tries <= 0 then Error "no shard available"
    else
      match pick t ~size with
      | None -> Error (no_host size)
      | Some sx -> (
          let reply = call sx (Protocol.Submit size) in
          settle_pick t sx ~size reply;
          match reply with
          | Ok resp -> Ok (sx, resp)
          | Error _ -> attempt (tries - 1))
  in
  attempt (shards t)

(* Where a shard put a submitted task: its local id, and whether it
   queued there. *)
let admitted = function
  | Ok (Protocol.Placed (local, _)) -> Some (local, false)
  | Ok (Protocol.Queued local) -> Some (local, true)
  | Ok _ | Error _ -> None

let globalize t sx p =
  { p with Protocol.base = p.Protocol.base + t.offsets.(sx) }

let globalize_state t sx = function
  | Protocol.Active p -> Protocol.Active (globalize t sx p)
  | (Protocol.Queued_task | Protocol.Unknown) as st -> st

let unexpected = Protocol.Error "unexpected shard reply"

(* A finish or query that the shard refused or failed. *)
let refused e = function
  | Ok (Protocol.Error _ as err) -> (err, Some e.shard)
  | Ok _ -> (unexpected, Some e.shard)
  | Error err -> (Protocol.Error ("shard failure: " ^ err), None)

(* A shard's answer to a client's submit: record the task in the ledger
   under its federated id. Admission was charged to the tenant at issue
   time; a refusal gives it back. *)
let submitted t ~tenant ~size sx resp =
  let admit local ~queued =
    let gid = Sharding.global_id ~shards:(shards t) ~shard:sx local in
    Hashtbl.replace t.ledger gid { shard = sx; local; size; tenant; queued };
    t.counts.routed.(sx) <- t.counts.routed.(sx) + 1;
    gid
  in
  match resp with
  | Protocol.Placed (local, p) ->
      (Protocol.Placed (admit local ~queued:false, globalize t sx p), Some sx)
  | Protocol.Queued local ->
      (Protocol.Queued (admit local ~queued:true), Some sx)
  | resp ->
      add_used t tenant (-size);
      ((match resp with Protocol.Error _ -> resp | _ -> unexpected), Some sx)

let reject t e =
  t.counts.rejects <- t.counts.rejects + 1;
  Protocol.Error e

(* ------------------------------------------------------------------ *)
(* client requests: issue, then settle                                 *)

(* The answer to a finish or query of an id that names no task: a
   negative id, a landing slot, or one its birth shard refuses. *)
let miss ~finish gid =
  if finish then Protocol.Error "unknown or finished task"
  else Protocol.State (gid, Protocol.Unknown)

let down sx = Answer (Protocol.Error (Printf.sprintf "shard %d down" sx), None)

(* An id the ledger lacks — a task of an earlier router, or of no one —
   goes to the shard that minted it, which answers with authority for
   every task never moved. The slot a move landed in was issued to no
   client, so it names no task. *)
let birth t ~finish gid =
  let shards = shards t in
  let sx = Sharding.owner ~shards gid in
  if gid < 0 || Hashtbl.mem t.landed gid then Answer (miss ~finish gid, None)
  else if not (up t sx) then down sx
  else
    let local = Sharding.local_id ~shards gid in
    Call
      ( sx,
        (if finish then Protocol.Finish local else Protocol.Query local),
        Birth_on { gid; sx; finish } )

let issue t ~tenant req =
  match req with
  | Protocol.Submit size -> (
      let over_quota =
        match t.quota with
        | Some q -> size > 0 && used t tenant + size > q
        | None -> false
      in
      if over_quota then
        Answer (reject t "tenant admission quota exceeded", None)
      else
        match pick t ~size with
        | None -> Answer (reject t (no_host size), None)
        | Some sx ->
            add_used t tenant size;
            t.submits <- t.submits + 1;
            Call (sx, req, Submit_on { sx; size; tenant }))
  | Protocol.Finish gid -> (
      match Hashtbl.find_opt t.ledger gid with
      | None -> birth t ~finish:true gid
      | Some e when not (up t e.shard) -> down e.shard
      | Some e ->
          let freed = min e.size (used t e.tenant) in
          add_used t e.tenant (-freed);
          if not e.queued then
            Fed_index.note_finish t.index e.shard ~size:e.size;
          Hashtbl.replace t.finishing gid ();
          Call (e.shard, Protocol.Finish e.local, Finish_on { gid; e; freed }))
  | Protocol.Query gid -> (
      match Hashtbl.find_opt t.ledger gid with
      | None -> birth t ~finish:false gid
      | Some e when not (up t e.shard) -> down e.shard
      | Some e -> Call (e.shard, Protocol.Query e.local, Query_on { gid; e }))
  | _ -> invalid_arg "Route.issue: not a per-task request"

let settle t pending reply =
  match pending with
  | Submit_on { sx; size; tenant } -> (
      t.submits <- t.submits - 1;
      settle_pick t sx ~size reply;
      match reply with
      | Ok resp -> Some (submitted t ~tenant ~size sx resp)
      | Error _ -> None)
  | Finish_on { gid; e; freed } -> (
      Hashtbl.remove t.finishing gid;
      match reply with
      | Ok Protocol.Finished ->
          Hashtbl.remove t.ledger gid;
          Hashtbl.remove t.landed (slot t e);
          Some (Protocol.Finished, Some e.shard)
      | reply ->
          add_used t e.tenant freed;
          if not e.queued then
            Fed_index.note_submit t.index e.shard ~size:e.size;
          Some (refused e reply))
  | Query_on { gid; e } ->
      Some
        (match reply with
        | Ok (Protocol.State (_, st)) ->
            (Protocol.State (gid, globalize_state t e.shard st), Some e.shard)
        | reply -> refused e reply)
  | Birth_on { gid; sx; finish } ->
      Some
        (match reply with
        | Ok Protocol.Finished when finish -> (Protocol.Finished, Some sx)
        | Ok (Protocol.State (_, ((Protocol.Active _ | Protocol.Queued_task) as st)))
          when not finish ->
            (Protocol.State (gid, globalize_state t sx st), Some sx)
        | Ok _ -> (miss ~finish gid, None)
        | Error err -> (Protocol.Error ("shard failure: " ^ err), None))

let failover t ~call = function
  | Submit_on { size; tenant; _ } -> (
      match route_submit t ~call ~size with
      | Ok (sx, resp) -> submitted t ~tenant ~size sx resp
      | Error e ->
          add_used t tenant (-size);
          (reject t e, None))
  | Finish_on _ | Query_on _ | Birth_on _ ->
      invalid_arg "Route.failover: not a submit"

let request t ~call ~tenant req =
  match issue t ~tenant req with
  | Answer (resp, served) -> (resp, served)
  | Call (sx, req, pending) -> (
      match settle t pending (call sx req) with
      | Some answer -> answer
      | None -> failover t ~call pending)

let overtakes t = function
  | Protocol.Finish gid | Protocol.Query gid ->
      Hashtbl.mem t.finishing gid
      || (t.submits > 0 && not (Hashtbl.mem t.ledger gid))
  | _ -> false

(* ------------------------------------------------------------------ *)
(* shard events                                                        *)

(* The tasks that live on a shard now, by gid. *)
let living_on t sx =
  Hashtbl.fold
    (fun gid e acc -> if e.shard = sx then (gid, e) :: acc else acc)
    t.ledger []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let mark_up t sx stats =
  Fed_index.set_up t.index sx true;
  observe t sx stats

(* A queued task on a dead shard is pure backlog the federation can
   still serve: re-admit it to a healthy shard under the same
   federated id. One that finds no home stays on the dead shard, and
   resolves again once a probe brings the shard back. *)
let mark_down t ~call sx =
  if up t sx then begin
    Fed_index.set_up t.index sx false;
    List.iter
      (fun (_, e) ->
        if e.queued then
          match route_submit t ~call ~size:e.size with
          | Error _ -> ()
          | Ok (sx', resp) -> (
              match admitted (Ok resp) with
              | None -> ()
              | Some (local', queued') ->
                  move t e ~shard:sx' ~local:local' ~queued:queued';
                  t.counts.routed.(sx') <- t.counts.routed.(sx') + 1;
                  t.counts.readmitted <- t.counts.readmitted + 1))
      (living_on t sx)
  end

(* The cheap online check the router can make from outside each shard
   (the full conformance oracle runs inside it at recovery): its own
   accounting must still balance. The stats it fetches are the shard's
   summary from here on. *)
let audit t ~call sx =
  if up t sx then
    match call sx Protocol.Stats with
    | Ok (Protocol.Stats_reply s) -> (
        observe t sx s;
        match call sx Protocol.Loads with
        | Ok (Protocol.Loads_reply loads) ->
            let sum = Array.fold_left ( + ) 0 loads in
            let mx = Array.fold_left max 0 loads in
            if sum <> s.Cluster.active_size || mx <> s.Cluster.max_load then
              t.counts.audit_failures <- t.counts.audit_failures + 1
        | Ok _ | Error _ -> ())
    | Ok _ | Error _ -> ()

let rebalance t ~call config =
  let m = shards t in
  let tasks sx =
    List.map
      (fun (gid, e) -> { Rebalance.gid; size = e.size; queued = e.queued })
      (living_on t sx)
  in
  let moves =
    Rebalance.plan config
      ~loads:(Array.init m (load t))
      ~up:(Array.init m (up t))
      ~shard_sizes:t.shard_sizes ~tasks
  in
  let touched = Array.make m false in
  List.iter
    (fun (mv : Rebalance.move) ->
      match Hashtbl.find_opt t.ledger mv.task.gid with
      | None -> ()
      | Some e -> (
          (* replay on the destination first, then drain the source,
             so an acknowledged task always has at least one home *)
          match admitted (call mv.dst (Protocol.Submit e.size)) with
          | None -> ()
          | Some (local', queued') -> (
              match call mv.src (Protocol.Finish e.local) with
              | Ok Protocol.Finished ->
                  if not e.queued then
                    Fed_index.note_finish t.index mv.src ~size:e.size;
                  if not queued' then
                    Fed_index.note_submit t.index mv.dst ~size:e.size;
                  move t e ~shard:mv.dst ~local:local' ~queued:queued';
                  t.counts.rebalanced <- t.counts.rebalanced + 1;
                  t.counts.rebalanced_bytes <-
                    t.counts.rebalanced_bytes + Rebalance.move_bytes config mv;
                  touched.(mv.src) <- true;
                  touched.(mv.dst) <- true
              | Ok _ | Error _ ->
                  (* drain refused or source died: undo the replay *)
                  ignore (call mv.dst (Protocol.Finish local')))))
    moves;
  Array.iteri (fun sx hit -> if hit then audit t ~call sx) touched
