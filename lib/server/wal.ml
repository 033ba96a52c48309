type op = Submit of { id : int; size : int } | Finish of { id : int }

(* ------------------------------------------------------------------ *)
(* policies                                                            *)

type fsync_policy = Always | Group | Interval of float | Never

let parse_policy s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Ok Always
  | "group" -> Ok Group
  | "never" -> Ok Never
  | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "interval" ->
          let ms = String.sub s (i + 1) (String.length s - i - 1) in
          (match float_of_string_opt ms with
          | Some ms when ms > 0. -> Ok (Interval (ms /. 1000.))
          | Some _ | None ->
              Error (Printf.sprintf "bad fsync interval %S (want a positive ms count)" ms))
      | _ ->
          Error
            (Printf.sprintf
               "unknown fsync policy %S (want always|group|interval:<ms>|never)" s))

let policy_name = function
  | Always -> "always"
  | Group -> "group"
  | Never -> "never"
  | Interval s -> Printf.sprintf "interval:%g" (s *. 1000.)

(* ------------------------------------------------------------------ *)
(* the log                                                             *)

type format = Binary_records

type t = {
  fd : Unix.file_descr;
  pending : Netbuf.t;  (** encoded records awaiting {!commit} *)
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
    pending_records = 0;
    last_seq = min_int;
    written_seq = min_int;
    durable_seq = min_int;
  }

let pending_records t = t.pending_records
let last_seq t = t.last_seq
let durable_seq t = t.durable_seq

(* A record: wal_magic, version, varint payload length, payload = op
   tag byte, varint seq, varint id, (submit only) varint size. *)

let tag_submit = '\001'
let tag_finish = '\002'

let record_done t seq =
  t.pending_records <- t.pending_records + 1;
  t.last_seq <- seq

let append_submit t ~seq ~id ~size =
  let p = t.pending in
  let plen =
    1 + Wire.varint_length seq + Wire.varint_length id + Wire.varint_length size
  in
  Netbuf.add_char p (Char.chr Wire.wal_magic);
  Netbuf.add_char p (Char.chr Wire.version);
  Netbuf.add_varint p plen;
  Netbuf.add_char p tag_submit;
  Netbuf.add_varint p seq;
  Netbuf.add_varint p id;
  Netbuf.add_varint p size;
  record_done t seq

let append_finish t ~seq ~id =
  let p = t.pending in
  let plen = 1 + Wire.varint_length seq + Wire.varint_length id in
  Netbuf.add_char p (Char.chr Wire.wal_magic);
  Netbuf.add_char p (Char.chr Wire.version);
  Netbuf.add_varint p plen;
  Netbuf.add_char p tag_finish;
  Netbuf.add_varint p seq;
  Netbuf.add_varint p id;
  record_done t seq

let append t ~seq op =
  match op with
  | Submit { id; size } -> append_submit t ~seq ~id ~size
  | Finish { id } -> append_finish t ~seq ~id

let flush_pending t =
  while not (Netbuf.is_empty t.pending) do
    ignore (Netbuf.drain t.pending t.fd)
  done;
  t.pending_records <- 0;
  t.written_seq <- t.last_seq

let commit t ~fsync =
  if not (Netbuf.is_empty t.pending) then flush_pending t;
  if fsync && t.durable_seq < t.written_seq then begin
    Unix.fsync t.fd;
    t.durable_seq <- t.written_seq;
    true
  end
  else false

let sync t =
  if not (Netbuf.is_empty t.pending) then flush_pending t;
  Unix.fsync t.fd;
  t.durable_seq <- t.written_seq

let reset t =
  Netbuf.clear t.pending;
  t.pending_records <- 0;
  Unix.ftruncate t.fd 0;
  t.written_seq <- t.last_seq;
  t.durable_seq <- t.last_seq

let close t =
  if not (Netbuf.is_empty t.pending) then flush_pending t;
  Unix.close t.fd

(* ------------------------------------------------------------------ *)
(* loading                                                             *)

type decoded = R_ok of int * op | R_bad of string | R_torn

(* One record at [pos]. R_torn means the record runs past EOF —
   the signature of a crash mid-write — and is only ever produced with
   a next position of [len]. *)
let decode_record data pos len =
  if pos + 2 > len then (R_torn, len)
  else if Char.code data.[pos + 1] <> Wire.version then
    ( R_bad
        (Printf.sprintf "unsupported wal record version %d"
           (Char.code data.[pos + 1])),
      len )
  else
    match Wire.get_varint_string data (pos + 2) len with
    | exception Wire.Corrupt e ->
        (* an overlong varint is corruption; a varint cut short by EOF
           is a torn tail *)
        if len - (pos + 2) >= Wire.max_varint_bytes then (R_bad e, len)
        else (R_torn, len)
    | plen, ppos ->
        if plen <= 0 || plen > Wire.max_payload then
          (R_bad "bad wal record length", len)
        else if ppos + plen > len then (R_torn, len)
        else begin
          let limit = ppos + plen in
          let gv p = Wire.get_varint_string data p limit in
          let r =
            match
              let tag = data.[ppos] in
              let p = ppos + 1 in
              if tag = tag_submit then begin
                let seq, p = gv p in
                let id, p = gv p in
                let size, p = gv p in
                if p <> limit then R_bad "trailing bytes in wal record"
                else R_ok (seq, Submit { id; size })
              end
              else if tag = tag_finish then begin
                let seq, p = gv p in
                let id, p = gv p in
                if p <> limit then R_bad "trailing bytes in wal record"
                else R_ok (seq, Finish { id })
              end
              else R_bad (Printf.sprintf "unknown wal op tag %d" (Char.code tag))
            with
            | r -> r
            | exception Wire.Corrupt e -> R_bad e
          in
          (r, limit)
        end

let load file =
  if not (Sys.file_exists file) then Ok []
  else begin
    let data = In_channel.with_open_bin file In_channel.input_all in
    let len = String.length data in
    let rec parse idx pos last_seq acc =
      if pos >= len then Ok (List.rev acc)
      else if data.[pos] = '{' then
        Error
          (Printf.sprintf
             "%s: wal record %d is a JSON record, which pmp 1.14 and earlier \
              could write and this version does not read; to migrate, serve \
              this directory with pmp 1.14 and send it `snapshot` (which \
              empties the log) then `shutdown`, or serve a fresh --dir"
             file (idx + 1))
      else if Char.code data.[pos] <> Wire.wal_magic then
        (* no record opens here: a final line of such bytes is a torn
           write (a zero-filled tail after power loss reads so) and
           drops; anything after it is corruption *)
        match String.index_from_opt data pos '\n' with
        | Some eol when eol + 1 < len ->
            Error (Printf.sprintf "wal record %d: not a wal record" (idx + 1))
        | Some _ | None -> Ok (List.rev acc)
      else
        match decode_record data pos len with
        | R_ok (seq, op), next ->
            if seq <= last_seq then
              Error
                (Printf.sprintf "wal record %d: seq %d not increasing" (idx + 1)
                   seq)
            else parse (idx + 1) next seq ((seq, op) :: acc)
        | R_torn, _ ->
            (* incomplete final record cut short by a crash: drop it *)
            Ok (List.rev acc)
        | R_bad e, _ ->
            (* a complete record never tears, so this is corruption *)
            Error (Printf.sprintf "wal record %d: %s" (idx + 1) e)
    in
    parse 0 0 min_int []
  end
