type op = Submit of { id : int; size : int } | Finish of { id : int }

(* ------------------------------------------------------------------ *)
(* policies                                                            *)

type fsync_policy = Always | Group | Never

let parse_policy s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Ok Always
  | "group" -> Ok Group
  | "never" -> Ok Never
  | s -> Error (Printf.sprintf "unknown fsync policy %S (want always|group|never)" s)

let policy_name = function
  | Always -> "always"
  | Group -> "group"
  | Never -> "never"

(* ------------------------------------------------------------------ *)
(* CRC-32C                                                             *)

(* Castagnoli, reflected, one table lookup per byte. The loop is a
   top-level function of its inputs, so a call allocates nothing. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0x82F63B78 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let rec crc_loop b i stop c =
  if i >= stop then c
  else
    let k = (c lxor Char.code (Bytes.unsafe_get b i)) land 0xff in
    crc_loop b (i + 1) stop (Array.unsafe_get crc_table k lxor (c lsr 8))

let crc32c b off len = crc_loop b off (off + len) 0xFFFFFFFF lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* the log                                                             *)

type format = Binary_records

type t = {
  fd : Unix.file_descr;
  pending : Netbuf.t;  (** closed frames awaiting {!commit} *)
  body : Netbuf.t;  (** the records of the open frame *)
  mutable first : int;  (** the open frame's first seq *)
  mutable named : bool;  (** the open frame names [first] *)
  mutable fresh : bool;  (** no frame since open or reset: the next is named *)
  mutable empty : bool;  (** the file is empty: the next write opens with the header *)
  mutable pending_records : int;
  mutable last_seq : int;  (** highest seq appended (possibly pending) *)
  mutable written_seq : int;  (** highest seq handed to the OS *)
  mutable durable_seq : int;  (** highest seq known fsynced *)
}

let open_log ?format:(_ : format option) file =
  let fd =
    Unix.openfile file [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  {
    fd;
    pending = Netbuf.create 4096;
    body = Netbuf.create 4096;
    first = 0;
    named = true;
    fresh = true;
    empty = (Unix.fstat fd).Unix.st_size = 0;
    pending_records = 0;
    last_seq = min_int;
    written_seq = min_int;
    durable_seq = min_int;
  }

let pending_records t = t.pending_records
let last_seq t = t.last_seq
let durable_seq t = t.durable_seq

(* The layout is in wal.mli. The open frame's records wait in [body]
   until it closes, since its length comes first. *)
let close_frame t =
  let out = t.pending in
  if t.empty then begin
    Netbuf.add_char out (Char.unsafe_chr Wire.wal_magic);
    Netbuf.add_char out (Char.unsafe_chr Wire.wal_version);
    t.empty <- false
  end;
  let start = Netbuf.length out in
  let n = Netbuf.length t.body in
  if t.named then begin
    Netbuf.add_varint out ((n lsl 1) lor 1);
    Netbuf.add_varint out t.first
  end
  else Netbuf.add_varint out (n lsl 1);
  Netbuf.add_subbytes out (Netbuf.bytes t.body) (Netbuf.offset t.body) n;
  let crc =
    crc32c (Netbuf.bytes out)
      (Netbuf.offset out + start)
      (Netbuf.length out - start)
  in
  Netbuf.add_char out (Char.unsafe_chr (crc land 0xff));
  Netbuf.add_char out (Char.unsafe_chr ((crc lsr 8) land 0xff));
  Netbuf.add_char out (Char.unsafe_chr ((crc lsr 16) land 0xff));
  Netbuf.add_char out (Char.unsafe_chr (crc lsr 24));
  Netbuf.clear t.body

(* A record at [seq] joins the open frame when it continues it; else
   the open frame closes and a new one opens, naming [seq] unless it
   continues the frame before. *)
let start_record t seq =
  let follows = seq = t.last_seq + 1 in
  let open_ = not (Netbuf.is_empty t.body) in
  if not (open_ && follows) then begin
    if open_ then close_frame t;
    t.first <- seq;
    t.named <- t.fresh || not follows;
    t.fresh <- false
  end

let record_done t seq =
  t.pending_records <- t.pending_records + 1;
  t.last_seq <- seq

let append_submit t ~seq ~id ~size =
  start_record t seq;
  Netbuf.add_varint t.body (id lsl 1);
  Netbuf.add_varint t.body size;
  record_done t seq

let append_finish t ~seq ~id =
  start_record t seq;
  Netbuf.add_varint t.body ((id lsl 1) lor 1);
  record_done t seq

let append t ~seq op =
  match op with
  | Submit { id; size } -> append_submit t ~seq ~id ~size
  | Finish { id } -> append_finish t ~seq ~id

let flush_pending t =
  close_frame t;
  while not (Netbuf.is_empty t.pending) do
    ignore (Netbuf.drain t.pending t.fd)
  done;
  t.pending_records <- 0;
  t.written_seq <- t.last_seq

let commit t ~fsync =
  if t.pending_records > 0 then flush_pending t;
  if fsync && t.durable_seq < t.written_seq then begin
    Unix.fsync t.fd;
    t.durable_seq <- t.written_seq;
    true
  end
  else false

let sync t =
  if t.pending_records > 0 then flush_pending t;
  Unix.fsync t.fd;
  t.durable_seq <- t.written_seq

let reset t =
  Netbuf.clear t.pending;
  Netbuf.clear t.body;
  t.pending_records <- 0;
  Unix.ftruncate t.fd 0;
  t.empty <- true;
  t.fresh <- true;
  t.written_seq <- t.last_seq;
  t.durable_seq <- t.last_seq

let close t =
  if t.pending_records > 0 then flush_pending t;
  Unix.close t.fd

(* ------------------------------------------------------------------ *)
(* loading                                                             *)

type scan = { records : (int * op) list; verified : int; length : int }

exception Refused of string

let u32_le s p =
  Char.code s.[p]
  lor (Char.code s.[p + 1] lsl 8)
  lor (Char.code s.[p + 2] lsl 16)
  lor (Char.code s.[p + 3] lsl 24)

(* The end of the frame at [pos] if it verifies, else -1: its length
   fits the file, its body is not empty and its CRC matches. *)
let frame_end s pos len =
  match Wire.get_varint_string s pos len with
  | exception Wire.Corrupt _ -> -1
  | v, p -> (
      let n = v lsr 1 in
      match if v land 1 = 0 then p else snd (Wire.get_varint_string s p len) with
      | exception Wire.Corrupt _ -> -1
      | p ->
          if n <= 0 || n > len - p - 4 then -1
          else if
            crc32c (Bytes.unsafe_of_string s) pos (p + n - pos) <> u32_le s (p + n)
          then -1
          else p + n + 4)

(* The first offset at or after [pos] where a frame verifies, or -1. *)
let rec next_frame s pos len =
  if pos >= len then -1
  else if frame_end s pos len >= 0 then pos
  else next_frame s (pos + 1) len

(* The records of the verified frame at [pos], numbered [idx], onto
   [acc]; [last] is the seq of the record before it. *)
let decode_frame s pos ~idx ~last acc =
  let refuse fmt =
    Printf.ksprintf
      (fun m ->
        raise (Refused (Printf.sprintf "wal frame %d at byte %d: %s" idx pos m)))
      fmt
  in
  let v, p = Wire.get_varint_string s pos (String.length s) in
  let first, p =
    if v land 1 = 1 then Wire.get_varint_string s p (String.length s)
    else if last = min_int then refuse "continues no frame"
    else (last + 1, p)
  in
  let limit = p + (v lsr 1) in
  if first <= last then refuse "seq %d not increasing" first;
  let rec records p seq acc =
    if p >= limit then (seq - 1, acc)
    else
      let v, p = Wire.get_varint_string s p limit in
      let id = v asr 1 in
      if v land 1 = 1 then records p (seq + 1) ((seq, Finish { id }) :: acc)
      else
        let size, p = Wire.get_varint_string s p limit in
        records p (seq + 1) ((seq, Submit { id; size }) :: acc)
  in
  match records p first acc with
  | r -> r
  | exception Wire.Corrupt e -> refuse "%s" e

let damaged file what pos next =
  Error
    (Printf.sprintf
       "%s: %s at byte %d does not verify, but the frame at byte %d after it \
        does: acknowledged records were damaged, so recovery refuses rather \
        than drop them (under --fsync-policy never, frames a crash left \
        unsynced can also land out of order)"
       file what pos next)

let scan file =
  if not (Sys.file_exists file) then
    Ok { records = []; verified = 0; length = 0 }
  else begin
    let s = In_channel.with_open_bin file In_channel.input_all in
    let len = String.length s in
    let loaded verified acc =
      Ok { records = List.rev acc; verified; length = len }
    in
    let rec frames idx pos last acc =
      if pos >= len then loaded len acc
      else
        let fin = frame_end s pos len in
        if fin >= 0 then
          let last, acc = decode_frame s pos ~idx ~last acc in
          frames (idx + 1) fin last acc
        else
          (* a frame that fails is a torn tail only if none verifies
             after it; its length may be the damaged byte, so look from
             its next byte on *)
          match next_frame s (pos + 1) len with
          | -1 -> loaded pos acc
          | next -> damaged file (Printf.sprintf "wal frame %d" idx) pos next
    in
    let magic = Char.chr Wire.wal_magic in
    if len = 0 || (len = 1 && s.[0] = magic) then loaded 0 []
    else if s.[0] = '{' then
      Error
        (Printf.sprintf
           "%s: wal record 1 is a JSON record, which pmp 1.14 and earlier \
            could write and this version does not read; to migrate, serve \
            this directory with pmp 1.14 and send it `snapshot` (which \
            empties the log) then `shutdown`, or serve a fresh --dir"
           file)
    else if s.[0] = magic && Char.code s.[1] = 1 then
      Error
        (Printf.sprintf
           "%s is a version-1 wal, which pmp 1.18 and earlier wrote and this \
            version does not read; to migrate, serve this directory with pmp \
            1.18 and send it `snapshot` (which empties the log) then \
            `shutdown`, or serve a fresh --dir"
           file)
    else if s.[0] = magic && Char.code s.[1] <> Wire.wal_version then
      Error
        (Printf.sprintf "%s: unsupported wal version %d" file (Char.code s.[1]))
    else if s.[0] = magic then
      match frames 1 2 min_int [] with
      | r -> r
      | exception Refused e -> Error (file ^ ": " ^ e)
    else
      (* the header never landed whole: torn, unless a frame follows *)
      match next_frame s 1 len with
      | -1 -> loaded 0 []
      | next -> damaged file "the wal header" 0 next
  end

let load file = Result.map (fun l -> l.records) (scan file)
