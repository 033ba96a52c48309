(* A connection's reusable byte window: one growable Bytes.t with a
   read position and a length. Reads from the socket land in the free
   tail; the protocol decoder consumes from the front; when the dead
   prefix gets large the live span is slid back to offset zero instead
   of reallocating. In steady state a connection therefore allocates
   nothing per request — the same storage is reused forever, which is
   the point (Buffer.contents on the old per-connection buffers showed
   up as a string copy per select round in the service profile). *)

(* [scanned]: how many bytes at the front the last failed [find_byte]
   searched; appends keep them, a consume or clear forgets them. *)
type t = {
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable scanned : int;
}

let create cap =
  { buf = Bytes.create (max 16 cap); pos = 0; len = 0; scanned = 0 }

let length t = t.len
let is_empty t = t.len = 0
let bytes t = t.buf
let offset t = t.pos

let clear t =
  t.pos <- 0;
  t.len <- 0;
  t.scanned <- 0

let compact t =
  if t.pos > 0 then begin
    if t.len > 0 then Bytes.blit t.buf t.pos t.buf 0 t.len;
    t.pos <- 0
  end

(* Make room for [n] more bytes at the tail, sliding or growing as
   needed; growth doubles so total copying stays linear. *)
let reserve t n =
  let cap = Bytes.length t.buf in
  if t.pos + t.len + n > cap then begin
    if t.len + n <= cap then compact t
    else begin
      let cap' = ref (max 16 cap) in
      while t.len + n > !cap' do
        cap' := !cap' * 2
      done;
      let buf' = Bytes.create !cap' in
      Bytes.blit t.buf t.pos buf' 0 t.len;
      t.buf <- buf';
      t.pos <- 0
    end
  end

let get_byte t i = Char.code (Bytes.unsafe_get t.buf (t.pos + i))

let consume t n =
  if n < 0 || n > t.len then invalid_arg "Netbuf.consume";
  t.pos <- t.pos + n;
  t.len <- t.len - n;
  t.scanned <- 0;
  if t.len = 0 then t.pos <- 0

let rec index_in buf c i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get buf i = c then i
  else index_in buf c (i + 1) stop

(* Resume where the last failed search stopped, so waiting for the end
   of a long line scans each byte once, not once per refill. *)
let find_byte t c =
  match index_in t.buf c (t.pos + t.scanned) (t.pos + t.len) with
  | -1 ->
      t.scanned <- t.len;
      None
  | i -> Some (i - t.pos)

let sub_string t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then invalid_arg "Netbuf.sub_string";
  Bytes.sub_string t.buf (t.pos + off) len

let add_char t c =
  reserve t 1;
  Bytes.unsafe_set t.buf (t.pos + t.len) c;
  t.len <- t.len + 1

let add_string t s =
  let n = String.length s in
  reserve t n;
  Bytes.blit_string s 0 t.buf (t.pos + t.len) n;
  t.len <- t.len + n

let add_subbytes t b off n =
  reserve t n;
  Bytes.blit b off t.buf (t.pos + t.len) n;
  t.len <- t.len + n

let add_buffer t b =
  let n = Buffer.length b in
  reserve t n;
  Buffer.blit b 0 t.buf (t.pos + t.len) n;
  t.len <- t.len + n

(* Recursive rather than ref-based: local refs are heap blocks, and
   this runs on the fast path's response encoding. *)
let rec add_varint_bytes t n =
  if n land lnot 0x7f = 0 then begin
    Bytes.unsafe_set t.buf (t.pos + t.len) (Char.unsafe_chr n);
    t.len <- t.len + 1
  end
  else begin
    Bytes.unsafe_set t.buf (t.pos + t.len)
      (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    t.len <- t.len + 1;
    add_varint_bytes t (n lsr 7)
  end

let add_varint t n =
  reserve t Wire.max_varint_bytes;
  add_varint_bytes t n

(* Read from [fd] into the free tail (growing to guarantee at least
   [chunk] bytes of room); returns the byte count, 0 on EOF.
   @raise Unix.Unix_error as [Unix.read] does (EAGAIN included). *)
let refill ?(chunk = 65536) t fd =
  reserve t chunk;
  let n =
    Unix.read fd t.buf (t.pos + t.len) (Bytes.length t.buf - t.pos - t.len)
  in
  t.len <- t.len + n;
  n

(* Write as much of the content as the socket accepts and consume it;
   returns the bytes written. @raise Unix.Unix_error. *)
let drain t fd =
  if t.len = 0 then 0
  else begin
    let n = Unix.write fd t.buf t.pos t.len in
    consume t n;
    n
  end
