(* One client connection, driven from a single thread.

   [run] pushes a span of a {!Stream} through the connection either
   closed-loop (at most [window] requests in flight) or open-loop (op
   [i] is due [i / rate] seconds after the phase starts, whatever has
   come back). Frames are encoded straight from the stream's arrays
   into a reused {!Pmp_server.Netbuf}; responses are copied raw into
   {!replies} and only decoded and checked after the clock stops. *)

module Netbuf = Pmp_server.Netbuf
module Wire = Pmp_server.Wire
module Protocol = Pmp_server.Protocol

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

type t = {
  fd : Unix.file_descr;
  inb : Netbuf.t;
  outb : Netbuf.t;
  cur : Wire.cursor;
  mutable pay_pos : int;  (** payload of the frame {!frame} found *)
  mutable pay_len : int;
}

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      Unix.set_nonblock fd;
      Ok
        {
          fd;
          inb = Netbuf.create 65536;
          outb = Netbuf.create 65536;
          cur = { Wire.pos = 0 };
          pay_pos = 0;
          pay_len = 0;
        }
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error (Unix.error_message e)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let rec select r w timeout =
  match Unix.select r w [] timeout with
  | rd, wr, _ -> (rd <> [], wr <> [])
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select r w timeout

let flush_some t =
  if not (Netbuf.is_empty t.outb) then
    try ignore (Netbuf.drain t.outb t.fd)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()

(* Wait up to [timeout] seconds for input (writing pending output
   meanwhile); true when bytes arrived. *)
let await t ~timeout =
  let w = if Netbuf.is_empty t.outb then [] else [ t.fd ] in
  let readable, writable = select [ t.fd ] w timeout in
  if writable then flush_some t;
  readable
  &&
  match Netbuf.refill t.inb t.fd with
  | 0 -> fail "daemon closed the connection"
  | _ -> true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      false
  | exception Unix.Unix_error (e, _, _) ->
      fail "connection: %s" (Unix.error_message e)

(* Find the first complete response frame in the in-buffer: sets
   [pay_pos] (absolute in [Netbuf.bytes]) and [pay_len]. *)
let frame t =
  let len = Netbuf.length t.inb in
  len >= 3
  &&
  let b = Netbuf.bytes t.inb and o = Netbuf.offset t.inb in
  if Char.code (Bytes.get b o) <> Wire.request_magic then
    fail "response is not a binary frame";
  t.cur.Wire.pos <- o + 2;
  match Wire.read_varint b t.cur (o + len) with
  | plen when t.cur.Wire.pos + plen <= o + len ->
      t.pay_pos <- t.cur.Wire.pos;
      t.pay_len <- plen;
      true
  | _ -> false
  | exception Wire.Corrupt _ when len < 2 + Wire.max_varint_bytes -> false

let consume_frame t =
  Netbuf.consume t.inb (t.pay_pos + t.pay_len - Netbuf.offset t.inb)

(* A synchronous request for control traffic (health, stats, metrics,
   shutdown), outside any timed phase. *)
let request ?(timeout = 60.0) t req =
  let payload = Buffer.create 16 and frame_buf = Buffer.create 32 in
  Protocol.request_payload payload req;
  Protocol.add_frame frame_buf payload;
  Netbuf.add_buffer t.outb frame_buf;
  flush_some t;
  let t0 = Clock.now_ns () in
  while not (frame t) do
    if Clock.since_s t0 > timeout then fail "no response within %.0f s" timeout;
    ignore (await t ~timeout:0.1)
  done;
  let s = Bytes.sub_string (Netbuf.bytes t.inb) t.pay_pos t.pay_len in
  consume_frame t;
  match Protocol.decode_response_payload s ~pos:0 ~limit:(String.length s) with
  | Ok r -> r
  | Error e -> fail "undecodable response: %s" e

(* ------------------------------------------------------------------ *)
(* raw responses                                                       *)

type replies = { raw : Buffer.t; ends : int array }
(** The payload of op [i]'s response spans [[ends.(i-1), ends.(i))] of
    [raw] (from 0 for op 0): phases run the ops of a stream in order. *)

let replies n = { raw = Buffer.create (16 * n); ends = Array.make n 0 }

let reset r = Buffer.clear r.raw

let reply r i =
  let pos = if i = 0 then 0 else r.ends.(i - 1) in
  let s = Buffer.sub r.raw pos (r.ends.(i) - pos) in
  Protocol.decode_response_payload s ~pos:0 ~limit:(String.length s)

let decode_all r ~count = Array.init count (reply r)

(* ------------------------------------------------------------------ *)
(* timed phases                                                        *)

let opcode = [| 1; 2; 3; 4 |] (* submit, finish, query, stats *)

(* Encode op [i]; [ids] maps stream task ids to daemon ids. *)
let add_op outb (st : Stream.t) ~ids i =
  Netbuf.add_char outb (Char.unsafe_chr Wire.request_magic);
  Netbuf.add_char outb (Char.unsafe_chr Wire.version);
  let k = st.kind.(i) in
  if k = Stream.k_stats then begin
    Netbuf.add_varint outb 1;
    Netbuf.add_char outb (Char.unsafe_chr opcode.(k))
  end
  else begin
    let arg = if k = Stream.k_submit then st.size.(i) else ids.(st.tid.(i)) in
    Netbuf.add_varint outb (1 + Wire.varint_length arg);
    Netbuf.add_char outb (Char.unsafe_chr opcode.(k));
    Netbuf.add_varint outb arg
  end

type phase = {
  elapsed_s : float;  (** first send to last response *)
  late_p99_us : float;  (** open loop: p99 of send delays past the schedule *)
  inflight_mid : int;  (** requests in flight when half were sent *)
  inflight_end : int;  (** ... and when the last was sent *)
}

(* Run ops [[lo, hi)]. [ids] maps stream task ids to daemon ids
   ([-1] = not yet known; learned from submit responses, so a finish
   or query of an unanswered submit waits). [lat.(i)] gets op [i]'s
   latency in ns: from its send time in closed loop, from its
   scheduled time in open loop. With [sent], [sent.(i)] gets op [i]'s
   send time — the traced run's request spans. *)
let run ?sent:sent_at t (st : Stream.t) ~ids ~replies ~lat ~lo ~hi ~window ~rate =
  let period = match rate with Some r -> 1e9 /. r | None -> 0.0 in
  let t0 = Clock.now_ns () in
  let due i = t0 + int_of_float (float_of_int (i - lo) *. period) in
  let sent = ref lo and recvd = ref lo in
  let late = Array.make (if rate = None then 0 else hi - lo) 0.0 in
  let mid = lo + ((hi - lo) / 2) in
  let inflight_mid = ref 0 and inflight_end = ref 0 in
  let last_progress = ref t0 in
  let resolvable i =
    let k = st.kind.(i) in
    k = Stream.k_submit || k = Stream.k_stats || ids.(st.tid.(i)) >= 0
  in
  let b = Netbuf.bytes in
  while !recvd < hi do
    let now = Clock.now_ns () in
    let blocked = ref false in
    while (not !blocked) && !sent < hi do
      let i = !sent in
      let go = match rate with None -> i - !recvd < window | Some _ -> due i <= now in
      if go && resolvable i then begin
        add_op t.outb st ~ids i;
        (match rate with
        | None -> lat.(i) <- now
        | Some _ ->
            lat.(i) <- due i;
            late.(i - lo) <- float_of_int (now - lat.(i)) /. 1e3);
        (match sent_at with Some a -> a.(i) <- now | None -> ());
        incr sent;
        if !sent = mid then inflight_mid := !sent - !recvd;
        if !sent = hi then inflight_end := !sent - !recvd
      end
      else blocked := true
    done;
    flush_some t;
    let timeout =
      match rate with
      | Some _ when !sent < hi && resolvable !sent ->
          Float.max 0.0 (float_of_int (due !sent - Clock.now_ns ()) /. 1e9)
      | _ -> 0.5
    in
    if await t ~timeout then begin
      let now = Clock.now_ns () in
      while frame t do
        let i = !recvd in
        lat.(i) <- now - lat.(i);
        if st.kind.(i) = Stream.k_submit && t.pay_len > 1 then begin
          (* placed (1) or queued (2): the daemon's id follows the tag *)
          let tag = Char.code (Bytes.get (b t.inb) t.pay_pos) in
          if tag = 1 || tag = 2 then begin
            t.cur.Wire.pos <- t.pay_pos + 1;
            ids.(st.tid.(i)) <- Wire.read_varint (b t.inb) t.cur (t.pay_pos + t.pay_len)
          end
        end;
        Buffer.add_subbytes replies.raw (b t.inb) t.pay_pos t.pay_len;
        replies.ends.(i) <- Buffer.length replies.raw;
        consume_frame t;
        incr recvd
      done;
      last_progress := now
    end;
    if !recvd = !sent && !sent < hi && not (resolvable !sent) then
      fail "op %d refers to a task whose submit failed" !sent;
    if Clock.since_s !last_progress > 30.0 then
      fail "daemon stopped answering (%d of %d ops answered)" (!recvd - lo) (hi - lo)
  done;
  {
    elapsed_s = Clock.since_s t0;
    late_p99_us = (if late = [||] then 0.0 else Pmp_util.Stats.percentile late 99.0);
    inflight_mid = !inflight_mid;
    inflight_end = !inflight_end;
  }
