(* LEB128 varints and the framing constants shared by the binary wire
   protocol (Protocol) and the WAL file format (Wal).

   Varints carry the full 63-bit OCaml int: encoding walks the two's
   complement bit pattern with logical shifts, so negative ints
   round-trip in at most nine bytes. All multi-byte quantities on the
   wire are varints — there is no fixed-width field anywhere, which
   keeps small ids and sizes (the common case) at one byte. *)

exception Corrupt of string

(* The first byte of every frame and of every WAL file. The WAL's
   cannot open a JSON value, so the loader tells an old JSON log, which
   it refuses, from a WAL file. The WAL versions its file format on its
   own: the protocol's [version] and [wal_version] change
   independently. *)
let request_magic = 0xB5
let wal_magic = 0xA7
let version = 0x01
let wal_version = 0x02

(* A frame no real client produces; protects the server's buffers from
   a garbage length prefix. *)
let max_payload = 1 lsl 24

let max_varint_bytes = 9

(* Recursive rather than ref-based: local refs are heap blocks, and
   these run once or twice per request on the fast path. *)
let rec add_varint buf n =
  if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    add_varint buf (n lsr 7)
  end

let rec varint_length_from len n =
  if n land lnot 0x7f = 0 then len else varint_length_from (len + 1) (n lsr 7)

let varint_length n = varint_length_from 1 n

(* [get_varint b pos limit] reads one varint from [b] starting at
   [pos], never touching [limit] or beyond; returns the value and the
   position after it. @raise Corrupt on truncation or overlength. *)
let get_varint b pos limit =
  let rec go v shift pos nbytes =
    if pos >= limit then raise (Corrupt "truncated varint")
    else if nbytes > max_varint_bytes then raise (Corrupt "overlong varint")
    else begin
      let c = Char.code (Bytes.unsafe_get b pos) in
      let v = v lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then (v, pos + 1) else go v (shift + 7) (pos + 1) (nbytes + 1)
    end
  in
  go 0 0 pos 1

let get_varint_string s pos limit = get_varint (Bytes.unsafe_of_string s) pos limit

(* The zero-allocation flavour for the server's fast path: the end
   position lands in a caller-owned cursor instead of a result tuple,
   so a cursor allocated once per connection makes every read free. *)
type cursor = { mutable pos : int }

(* The loop lives at top level with every input as a parameter: an
   inner [let rec] closing over [b]/[cur]/[limit] is a heap-allocated
   closure per call without flambda, which this code exists to avoid. *)
let rec read_varint_loop b cur limit v shift pos nbytes =
  if pos >= limit then raise (Corrupt "truncated varint")
  else if nbytes > max_varint_bytes then raise (Corrupt "overlong varint")
  else begin
    let c = Char.code (Bytes.unsafe_get b pos) in
    let v = v lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then begin
      cur.pos <- pos + 1;
      v
    end
    else read_varint_loop b cur limit v (shift + 7) (pos + 1) (nbytes + 1)
  end

let read_varint b cur limit = read_varint_loop b cur limit 0 0 cur.pos 1
