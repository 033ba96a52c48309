module Json = Pmp_util.Json

type op = Submit of { id : int; size : int } | Finish of { id : int }

let num n = Json.Num (float_of_int n)

let op_to_json ~seq op =
  Json.Obj
    (("seq", num seq)
    ::
    (match op with
    | Submit { id; size } ->
        [ ("op", Json.Str "submit"); ("id", num id); ("size", num size) ]
    | Finish { id } -> [ ("op", Json.Str "finish"); ("id", num id) ]))

let int_field v name =
  match Option.bind (Json.member name v) Json.to_int with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "missing integer field %S" name)

let ( let* ) = Result.bind

let op_of_json v =
  let* seq = int_field v "seq" in
  let* op =
    match Option.bind (Json.member "op" v) Json.to_str with
    | Some "submit" ->
        let* id = int_field v "id" in
        let* size = int_field v "size" in
        Ok (Submit { id; size })
    | Some "finish" ->
        let* id = int_field v "id" in
        Ok (Finish { id })
    | Some other -> Error (Printf.sprintf "unknown wal op %S" other)
    | None -> Error "missing string field \"op\""
  in
  Ok (seq, op)

(* ------------------------------------------------------------------ *)
(* policies and formats                                                *)

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

type format = Json_records | Binary_records

let parse_format s =
  match String.lowercase_ascii (String.trim s) with
  | "json" -> Ok Json_records
  | "binary" -> Ok Binary_records
  | s -> Error (Printf.sprintf "unknown wal format %S (want binary|json)" s)

(* ------------------------------------------------------------------ *)
(* the log                                                             *)

type t = {
  file : string;
  format : format;
  fd : Unix.file_descr;
  pending : Netbuf.t;  (** encoded records awaiting {!commit} *)
  mutable pending_records : int;
  mutable last_seq : int;  (** highest seq appended (possibly pending) *)
  mutable written_seq : int;  (** highest seq handed to the OS *)
  mutable durable_seq : int;  (** highest seq known fsynced *)
}

let open_log ?(format = Json_records) file =
  let fd =
    Unix.openfile file [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  {
    file;
    format;
    fd;
    pending = Netbuf.create 4096;
    pending_records = 0;
    last_seq = min_int;
    written_seq = min_int;
    durable_seq = min_int;
  }

let path t = t.file
let format t = t.format
let pending_records t = t.pending_records
let last_seq t = t.last_seq
let durable_seq t = t.durable_seq

(* Binary record: wal_magic, version, varint payload length, payload =
   op tag byte, varint seq, varint id, (submit only) varint size. The
   magic can't begin a JSON line, so one log can mix both formats and
   old JSON logs load unchanged. *)

let tag_submit = '\001'
let tag_finish = '\002'

let record_done t seq =
  t.pending_records <- t.pending_records + 1;
  t.last_seq <- seq

let append_submit t ~seq ~id ~size =
  (match t.format with
  | Binary_records ->
      let p = t.pending in
      let plen =
        1 + Wire.varint_length seq + Wire.varint_length id
        + Wire.varint_length size
      in
      Netbuf.add_char p (Char.chr Wire.wal_magic);
      Netbuf.add_char p (Char.chr Wire.version);
      Netbuf.add_varint p plen;
      Netbuf.add_char p tag_submit;
      Netbuf.add_varint p seq;
      Netbuf.add_varint p id;
      Netbuf.add_varint p size
  | Json_records ->
      Netbuf.add_string t.pending
        (Json.to_string (op_to_json ~seq (Submit { id; size })));
      Netbuf.add_char t.pending '\n');
  record_done t seq

let append_finish t ~seq ~id =
  (match t.format with
  | Binary_records ->
      let p = t.pending in
      let plen = 1 + Wire.varint_length seq + Wire.varint_length id in
      Netbuf.add_char p (Char.chr Wire.wal_magic);
      Netbuf.add_char p (Char.chr Wire.version);
      Netbuf.add_varint p plen;
      Netbuf.add_char p tag_finish;
      Netbuf.add_varint p seq;
      Netbuf.add_varint p id
  | Json_records ->
      Netbuf.add_string t.pending
        (Json.to_string (op_to_json ~seq (Finish { id })));
      Netbuf.add_char t.pending '\n');
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

(* One binary record at [pos]. R_torn means the record runs past EOF —
   the signature of a crash mid-write — and is only ever produced with
   a next position of [len]. *)
let decode_binary data pos len =
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

(* One text line at [pos]: a JSON record, or garbage. *)
let decode_line data pos len =
  let eol =
    match String.index_from_opt data pos '\n' with Some i -> i | None -> len
  in
  let next = if eol = len then len else eol + 1 in
  let r =
    if data.[pos] = '{' then begin
      let line = String.sub data pos (eol - pos) in
      match Json.of_string line with
      | v -> (
          match op_of_json v with
          | Ok (seq, op) -> R_ok (seq, op)
          | Error e -> R_bad e)
      | exception Json.Parse_error e -> R_bad ("bad json: " ^ e)
    end
    else R_bad "not a wal record"
  in
  (r, next)

let load file =
  if not (Sys.file_exists file) then Ok []
  else begin
    let data = In_channel.with_open_bin file In_channel.input_all in
    let len = String.length data in
    let rec parse idx pos last_seq acc =
      if pos >= len then Ok (List.rev acc)
      else begin
        let is_binary = Char.code data.[pos] = Wire.wal_magic in
        let r, next =
          if is_binary then decode_binary data pos len
          else decode_line data pos len
        in
        match r with
        | R_ok (seq, op) ->
            if seq <= last_seq then
              Error
                (Printf.sprintf "wal record %d: seq %d not increasing" (idx + 1)
                   seq)
            else parse (idx + 1) next seq ((seq, op) :: acc)
        | R_torn ->
            (* incomplete final record cut short by a crash: drop it *)
            Ok (List.rev acc)
        | R_bad e ->
            (* a malformed final text line is a torn write and drops; a
               complete binary record never tears, so it (and anything
               interior) is real corruption *)
            if next >= len && not is_binary then Ok (List.rev acc)
            else Error (Printf.sprintf "wal record %d: %s" (idx + 1) e)
      end
    in
    parse 0 0 min_int []
  end
