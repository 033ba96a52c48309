(* The pmpd subsystem: wire protocol round-trips, WAL semantics
   (including torn tails), snapshot round-trips and refusals, the
   split property (a cluster rebuilt from a snapshot answers the rest
   exactly), and the headline crash-recovery property —
   crash at a random point, restart, and the recovered daemon must be
   bit-for-bit the cluster that never crashed. The socket tests run a
   real server in a domain and talk to it over Unix and TCP sockets. *)

module Sm = Pmp_prng.Splitmix64
module Cluster = Pmp_cluster.Cluster
module Protocol = Pmp_server.Protocol
module Wal = Pmp_server.Wal
module Snapshot = Pmp_server.Snapshot
module Server = Pmp_server.Server
module Client = Pmp_server.Client

let get_ok ~ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx e

let string_contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* --- temp state directories ------------------------------------- *)

let temp_count = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let with_dir f =
  incr temp_count;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmpd-test-%d-%d" (Unix.getpid ()) !temp_count)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- protocol ----------------------------------------------------- *)

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Protocol.Submit s) (int_range 0 1024);
        map (fun i -> Protocol.Finish i) (int_range 0 100_000);
        map (fun i -> Protocol.Query i) (int_range 0 100_000);
        oneofl
          [
            Protocol.Stats; Protocol.Loads; Protocol.Metrics;
            Protocol.Snapshot; Protocol.Ping; Protocol.Health;
            Protocol.Shutdown;
          ];
      ])

let arb_request =
  QCheck.make
    ~print:(fun r -> Protocol.encode_request r)
    gen_request

let gen_placement =
  QCheck.Gen.(
    map
      (fun (base, size, copy) -> { Protocol.base; size; copy })
      (triple (int_range 0 1024) (int_range 1 1024) (int_range 0 16)))

let gen_stats =
  QCheck.Gen.(
    map
      (fun ((submitted, completed, queued_now, active_now, active_size),
            (max_load, peak_load, optimal_now, reallocations, tasks_migrated))
         ->
        {
          Cluster.submitted; completed; queued_now; active_now; active_size;
          max_load; peak_load; optimal_now; reallocations; tasks_migrated;
        })
      (pair
         (tup5 nat nat nat nat nat)
         (tup5 nat nat nat nat nat)))

let gen_response =
  QCheck.Gen.(
    oneof
      [
        map
          (fun (id, p) -> Protocol.Placed (id, p))
          (pair (int_range 0 100_000) gen_placement);
        map (fun id -> Protocol.Queued id) (int_range 0 100_000);
        return Protocol.Finished;
        map
          (fun (id, st) -> Protocol.State (id, st))
          (pair (int_range 0 100_000)
             (oneof
                [
                  map (fun p -> Protocol.Active p) gen_placement;
                  return Protocol.Queued_task; return Protocol.Unknown;
                ]));
        map (fun s -> Protocol.Stats_reply s) gen_stats;
        map
          (fun l -> Protocol.Loads_reply (Array.of_list l))
          (list_size (int_range 0 64) nat);
        (* metrics and errors carry arbitrary strings — newlines,
           quotes and control bytes must survive the single-line
           framing *)
        map (fun s -> Protocol.Metrics_reply s) string;
        map (fun s -> Protocol.Snapshot_reply s) string;
        return Protocol.Pong;
        map
          (fun ((ready, uptime_ms), (seq, recovered_ops)) ->
            Protocol.Health_reply
              { Protocol.ready; uptime_ms; seq; recovered_ops })
          (pair (pair bool nat) (pair nat nat));
        return Protocol.Bye;
        map (fun s -> Protocol.Error s) string;
      ])

let arb_response =
  QCheck.make ~print:(fun r -> Protocol.encode_response r) gen_response

let request_roundtrip =
  QCheck.Test.make ~name:"request encode/decode round-trip" ~count:500
    arb_request (fun r ->
      Protocol.decode_request (Protocol.encode_request r) = Ok r)

let response_roundtrip =
  QCheck.Test.make ~name:"response encode/decode round-trip" ~count:500
    arb_response (fun r ->
      let line = Protocol.encode_response r in
      (not (String.contains line '\n'))
      && Protocol.decode_response line = Ok r)

(* The binary codec must agree with the JSON codec request for
   request: same value in, same value back out of either encoding. *)
let binary_request_equiv =
  QCheck.Test.make ~name:"binary request codec matches JSON codec" ~count:500
    arb_request (fun r ->
      Protocol.decode_request_binary (Protocol.encode_request_binary r) = Ok r
      && Protocol.decode_request (Protocol.encode_request r) = Ok r)

let binary_response_equiv =
  QCheck.Test.make ~name:"binary response codec matches JSON codec" ~count:500
    arb_response (fun r ->
      let bin = Protocol.encode_response_binary r in
      (* binary frames are self-delimiting: a concatenated stream must
         split exactly where the frame says it ends *)
      Protocol.decode_response_binary bin = Ok r
      && Protocol.decode_response (Protocol.encode_response r) = Ok r
      && bin.[0] = Char.chr Pmp_server.Wire.request_magic)

(* Request-id attribution: a rid attached to any request or response
   survives both encodings and comes back as exactly [Some rid]; the
   plain decoders keep accepting (and ignoring) tagged messages. *)
let arb_rid = QCheck.make QCheck.Gen.(int_range 0 1_000_000_000)

let rid_request_roundtrip =
  QCheck.Test.make ~name:"request ids echo through both encodings" ~count:300
    (QCheck.pair arb_request arb_rid) (fun (r, rid) ->
      let buf = Buffer.create 64 in
      Protocol.request_payload_rid buf ~rid r;
      let payload = Buffer.contents buf in
      Protocol.decode_request_rid (Protocol.encode_request ~rid r)
      = Ok (r, Some rid)
      && Protocol.decode_request (Protocol.encode_request ~rid r) = Ok r
      && Protocol.decode_request_payload_rid payload ~pos:0
           ~limit:(String.length payload)
         = Ok (r, Some rid)
      && Protocol.decode_request_binary (Protocol.encode_request_binary ~rid r)
         = Ok r)

let rid_response_roundtrip =
  QCheck.Test.make ~name:"response ids echo through both encodings" ~count:300
    (QCheck.pair arb_response arb_rid) (fun (r, rid) ->
      let buf = Buffer.create 64 in
      Protocol.response_payload_rid buf ~rid r;
      let payload = Buffer.contents buf in
      Protocol.decode_response_attr (Protocol.encode_response ~rid r)
      = Ok (r, Some rid, None)
      && Protocol.decode_response (Protocol.encode_response ~rid r) = Ok r
      && Protocol.decode_response_payload_attr payload ~pos:0
           ~limit:(String.length payload)
         = Ok (r, Some rid, None)
      && Protocol.decode_response_binary
           (Protocol.encode_response_binary ~rid r)
         = Ok r)

let test_binary_decode_errors () =
  let reject ~ctx s =
    match Protocol.decode_request_binary s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: decode_request_binary accepted %S" ctx s
  in
  let refuse ~ctx s expected =
    match Protocol.decode_request_binary s with
    | Error e -> Alcotest.(check string) ctx expected e
    | Ok _ -> Alcotest.failf "%s: decode_request_binary accepted %S" ctx s
  in
  let good = Protocol.encode_request_binary (Protocol.Submit 8) in
  reject ~ctx:"empty" "";
  refuse ~ctx:"bad magic"
    ("\x00" ^ String.sub good 1 (String.length good - 1))
    "not a binary frame";
  refuse ~ctx:"json line" (Protocol.encode_request (Protocol.Submit 8))
    "not a binary frame";
  reject ~ctx:"bad version"
    (String.make 1 good.[0] ^ "\x7f" ^ String.sub good 2 (String.length good - 2));
  for cut = 0 to String.length good - 1 do
    reject ~ctx:"truncated" (String.sub good 0 cut)
  done;
  refuse ~ctx:"trailing bytes" (good ^ "\x00") "frame length mismatch";
  (* unknown opcode inside a well-formed frame *)
  reject ~ctx:"unknown opcode" "\xb5\x01\x01\x63";
  (* declared payload length disagreeing with the actual payload *)
  refuse ~ctx:"length mismatch" "\xb5\x01\x05\x01\x08"
    "frame length mismatch"

let test_decode_errors () =
  let bad =
    [
      ""; "{"; "not json"; "[1,2]"; "42"; "null";
      {|{"op":"warp"}|};
      {|{"op":"submit"}|};
      {|{"op":"submit","size":"big"}|};
      {|{"op":"finish"}|};
      {|{"noop":true}|};
    ]
  in
  List.iter
    (fun line ->
      match Protocol.decode_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decode_request accepted %S" line)
    bad;
  List.iter
    (fun line ->
      match Protocol.decode_response line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decode_response accepted %S" line)
    (bad @ [ {|{"ok":true}|}; {|{"ok":true,"status":"warp"}|} ])

let test_command_parsing () =
  let req = Alcotest.testable (Fmt.of_to_string Protocol.encode_request) ( = ) in
  let check_req cmd expected =
    match Protocol.request_of_command cmd with
    | `Request r -> Alcotest.check req cmd expected r
    | _ -> Alcotest.failf "%S did not parse as a request" cmd
  in
  check_req "submit 8" (Protocol.Submit 8);
  check_req "  submit   8  " (Protocol.Submit 8);
  check_req "finish 3" (Protocol.Finish 3);
  check_req "query 0" (Protocol.Query 0);
  check_req "stats" Protocol.Stats;
  check_req "loads" Protocol.Loads;
  check_req "metrics" Protocol.Metrics;
  check_req "snapshot" Protocol.Snapshot;
  check_req "ping" Protocol.Ping;
  check_req "shutdown" Protocol.Shutdown;
  (match Protocol.request_of_command "" with
  | `Blank -> ()
  | _ -> Alcotest.fail "empty line should be `Blank");
  (match Protocol.request_of_command "quit" with
  | `Quit -> ()
  | _ -> Alcotest.fail "quit should be `Quit");
  List.iter
    (fun cmd ->
      match Protocol.request_of_command cmd with
      | `Error _ -> ()
      | _ -> Alcotest.failf "%S should be a parse error" cmd)
    [ "submit"; "submit x"; "finish"; "warp 9"; "stats 1" ]

(* --- WAL ---------------------------------------------------------- *)

let sample_ops =
  [
    (1, Wal.Submit { id = 0; size = 8 });
    (2, Wal.Submit { id = 1; size = 16 });
    (3, Wal.Finish { id = 0 });
    (4, Wal.Submit { id = 2; size = 1 });
  ]

let write_wal ?(name = "wal.log") dir records =
  let path = Filename.concat dir name in
  let w = Wal.open_log path in
  List.iter (fun (seq, op) -> Wal.append w ~seq op) records;
  Wal.close w;
  path

let append_bytes path s =
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
      Out_channel.output_string oc s)

let check_load ~ctx path expected =
  let got = get_ok ~ctx (Wal.load path) in
  if got <> expected then
    Alcotest.failf "%s: loaded %d records, wanted %d" ctx (List.length got)
      (List.length expected)

let test_wal_roundtrip () =
  with_dir (fun dir ->
      let path = write_wal dir sample_ops in
      check_load ~ctx:"round-trip" path sample_ops;
      (* appending after reopen continues the same log *)
      let w = Wal.open_log path in
      Wal.append w ~seq:5 (Wal.Finish { id = 2 });
      Wal.sync w;
      Wal.close w;
      check_load ~ctx:"reopened" path
        (sample_ops @ [ (5, Wal.Finish { id = 2 }) ]);
      check_load ~ctx:"missing file" (Filename.concat dir "nope.log") [])

(* A final stretch in which no frame verifies drops as a torn tail.
   Power loss can leave the file extended over blocks whose data never
   landed, so the tail reads as zeros. (Commits cut short at every
   byte offset are "wal binary torn tail".) *)
let test_wal_torn_tail () =
  with_dir (fun dir ->
      let path = write_wal dir sample_ops in
      append_bytes path (String.make 4096 '\000');
      check_load ~ctx:"zero-filled tail dropped" path sample_ops;
      let path = write_wal ~name:"line.log" dir sample_ops in
      append_bytes path "garbage\n";
      check_load ~ctx:"garbage tail dropped" path sample_ops)

let test_wal_interior_corruption () =
  with_dir (fun dir ->
      let path = write_wal dir [ List.hd sample_ops ] in
      append_bytes path "garbage\n";
      let w = Wal.open_log path in
      Wal.append w ~seq:2 (Wal.Finish { id = 0 });
      Wal.close w;
      (match Wal.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage before a frame must not load");
      (* non-increasing sequence numbers are corruption too *)
      let path2 =
        write_wal ~name:"seq.log" dir
          [ (3, Wal.Finish { id = 0 }); (3, Wal.Finish { id = 1 });
            (4, Wal.Finish { id = 2 }) ]
      in
      match Wal.load path2 with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "non-increasing seq must not load")

let test_wal_reset () =
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.open_log path in
      List.iter (fun (seq, op) -> Wal.append w ~seq op) sample_ops;
      Wal.reset w;
      Wal.append w ~seq:9 (Wal.Finish { id = 1 });
      Wal.close w;
      check_load ~ctx:"after reset" path [ (9, Wal.Finish { id = 1 }) ])

let test_wal_binary_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.bin" in
      let w = Wal.open_log path in
      List.iter (fun (seq, op) -> Wal.append w ~seq op) sample_ops;
      Alcotest.(check int) "buffered before commit" (List.length sample_ops)
        (Wal.pending_records w);
      check_load ~ctx:"uncommitted records invisible" path [];
      ignore (Wal.commit w ~fsync:false);
      Alcotest.(check int) "drained after commit" 0 (Wal.pending_records w);
      check_load ~ctx:"committed batch" path sample_ops;
      Wal.close w)

(* Chop a group-committed binary log at every possible byte offset: a
   torn tail must always load as the exact prefix of records whose
   frames fit, never an error and never a phantom record. *)
let test_wal_binary_torn_tail () =
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.bin" in
      let w = Wal.open_log path in
      (* commit one record at a time to learn each frame boundary *)
      let boundaries =
        List.map
          (fun (seq, op) ->
            Wal.append w ~seq op;
            ignore (Wal.commit w ~fsync:false);
            ((Unix.stat path).Unix.st_size, (seq, op)))
          sample_ops
      in
      Wal.close w;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let torn = Filename.concat dir "torn.bin" in
      for cut = 0 to String.length full do
        Out_channel.with_open_bin torn (fun oc ->
            Out_channel.output_string oc (String.sub full 0 cut));
        let expected =
          List.filter_map
            (fun (fin, rec_) -> if fin <= cut then Some rec_ else None)
            boundaries
        in
        check_load ~ctx:(Printf.sprintf "cut at byte %d" cut) torn expected
      done)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* [s] with byte [i] replaced by [c] *)
let with_byte s i c =
  let b = Bytes.of_string s in
  Bytes.set b i c;
  Bytes.to_string b

(* Damage in the first of two commits, which a verifying frame
   follows, is refused, naming the frame and its byte offset; damage in
   the last one reads as a torn write and drops it. *)
let test_wal_binary_interior_corruption () =
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.bin" in
      let first = List.filteri (fun i _ -> i < 2) sample_ops in
      let second = List.filteri (fun i _ -> i >= 2) sample_ops in
      let w = Wal.open_log path in
      List.iter (fun (seq, op) -> Wal.append w ~seq op) first;
      ignore (Wal.commit w ~fsync:false);
      let mid = (Unix.stat path).Unix.st_size in
      List.iter (fun (seq, op) -> Wal.append w ~seq op) second;
      ignore (Wal.commit w ~fsync:false);
      Wal.close w;
      let full = read_file path in
      let flip at =
        write_file path (with_byte full at (Char.chr (255 - Char.code full.[at])))
      in
      flip (mid - 2);
      (match Wal.load path with
      | Ok _ -> Alcotest.fail "a damaged first commit must not load"
      | Error e ->
          if not (string_contains e "wal frame 1 at byte 2") then
            Alcotest.failf "refusal %S does not name frame 1 at byte 2" e);
      flip (String.length full - 2);
      check_load ~ctx:"damaged final commit dropped" path first)

(* The check value of CRC-32C (Castagnoli) *)
let test_wal_crc32c () =
  Alcotest.(check int) "crc32c \"123456789\"" 0xE3069283
    (Wal.crc32c (Bytes.of_string "xx123456789") 2 9)

(* Steady state, appends and their commit allocate nothing: records,
   framing and checksum are written into buffers the log reuses. *)
let test_wal_append_commit_allocation () =
  with_dir (fun dir ->
      let w = Wal.open_log (Filename.concat dir "wal.log") in
      let rounds lo hi =
        for i = lo to hi - 1 do
          Wal.append_submit w ~seq:((2 * i) + 1) ~id:i ~size:4;
          Wal.append_finish w ~seq:((2 * i) + 2) ~id:i;
          ignore (Wal.commit w ~fsync:false)
        done
      in
      let words f =
        let w0 = Gc.minor_words () in
        f ();
        Gc.minor_words () -. w0
      in
      rounds 0 100;
      let idle = words (fun () -> ()) in
      let busy = words (fun () -> rounds 100 1100) in
      Wal.close w;
      Alcotest.(check (float 0.0)) "words for 1000 appends + commits" idle busy)

(* Random logs cut into random commits (two or more, learning each
   commit's end from the file size): a single-byte change before the
   final commit is refused, while a truncation anywhere, or a change
   inside the final commit, loads exactly the commits before it. *)
let wal_damage_property =
  let gen_op =
    QCheck.Gen.(
      oneof
        [
          map2 (fun id size -> Wal.Submit { id; size }) (int_range 0 1_000_000)
            (int_range 0 4096);
          map (fun id -> Wal.Finish { id }) (int_range 0 1_000_000);
        ])
  in
  QCheck.Test.make ~name:"wal damage: refused before the last commit, dropped in it"
    ~count:60
    (QCheck.make
       ~print:(fun (seq0, commits, mask) ->
         Printf.sprintf "seq0=%d commits=[%s] mask=%d" seq0
           (String.concat "; "
              (List.map (fun c -> string_of_int (List.length c)) commits))
           mask)
       QCheck.Gen.(
         triple (int_range 1 1_000_000)
           (list_size (int_range 2 6) (list_size (int_range 1 8) gen_op))
           (int_range 1 255)))
    (fun (seq0, commits, mask) ->
      with_dir (fun dir ->
          let path = Filename.concat dir "wal.log" in
          let w = Wal.open_log path in
          let next = ref seq0 in
          let ends =
            List.map
              (fun ops ->
                let recs =
                  List.map
                    (fun op ->
                      let r = (!next, op) in
                      Wal.append w ~seq:!next op;
                      incr next;
                      r)
                    ops
                in
                ignore (Wal.commit w ~fsync:false);
                ((Unix.stat path).Unix.st_size, recs))
              commits
          in
          Wal.close w;
          let full = read_file path in
          let n = String.length full in
          let before cut =
            List.concat_map (fun (fin, recs) -> if fin <= cut then recs else []) ends
          in
          let last_start = fst (List.nth ends (List.length ends - 2)) in
          let loads ~ctx bytes expected =
            write_file path bytes;
            match Wal.load path with
            | Ok got when got = expected -> ()
            | Ok got ->
                Alcotest.failf "%s: loaded %d records, wanted %d" ctx (List.length got)
                  (List.length expected)
            | Error e -> Alcotest.failf "%s: refused: %s" ctx e
          in
          for cut = 0 to n - 1 do
            loads ~ctx:(Printf.sprintf "cut at %d of %d" cut n) (String.sub full 0 cut)
              (before cut)
          done;
          for i = 0 to n - 1 do
            let bytes = with_byte full i (Char.chr (Char.code full.[i] lxor mask)) in
            let ctx =
              Printf.sprintf "byte %d of %d (last commit from %d)" i n last_start
            in
            if i >= last_start then loads ~ctx bytes (before last_start)
            else begin
              write_file path bytes;
              match Wal.load path with
              | Error _ -> ()
              | Ok _ -> Alcotest.failf "%s: a damaged commit loaded" ctx
            end
          done;
          true))

let test_fsync_policy_parse () =
  let check s expected =
    match Wal.parse_policy s with
    | Ok p when p = expected -> ()
    | Ok p -> Alcotest.failf "%S parsed as %s" s (Wal.policy_name p)
    | Error e -> Alcotest.failf "%S did not parse: %s" s e
  in
  check "always" Wal.Always;
  check "group" Wal.Group;
  check "never" Wal.Never;
  List.iter
    (fun s ->
      match Wal.parse_policy s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bad policy %S parsed" s)
    [
      ""; "warp"; "interval"; "interval:"; "interval:x"; "interval:-5";
      "interval:250";
    ]

(* --- snapshots ---------------------------------------------------- *)

let all_policies =
  [
    Cluster.Greedy; Cluster.Copies; Cluster.Optimal;
    Cluster.Periodic (Pmp_core.Realloc.make_budget 0);
    Cluster.Periodic (Pmp_core.Realloc.make_budget 3);
    Cluster.Periodic Pmp_core.Realloc.Never;
    Cluster.Hybrid (Pmp_core.Realloc.make_budget 2);
    Cluster.Randomized 1337;
  ]

let test_policy_codec () =
  List.iter
    (fun p ->
      let s = Snapshot.policy_to_string p in
      match Snapshot.policy_of_string s with
      | Ok p' when p = p' -> ()
      | Ok _ -> Alcotest.failf "policy %S decoded to a different policy" s
      | Error e -> Alcotest.failf "policy %S did not decode: %s" s e)
    all_policies;
  List.iter
    (fun s ->
      match Snapshot.policy_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bad policy %S decoded" s)
    [ ""; "warp"; "periodic"; "periodic:x"; "randomized:"; "periodic:-2" ]

let drive_cluster g cluster ~steps =
  for _ = 1 to steps do
    let next = Cluster.next_id cluster in
    if next = 0 || Sm.int g 3 < 2 then begin
      let levels = Pmp_util.Pow2.ilog2 (Cluster.machine_size cluster) in
      let order = Sm.int g (levels + 1) in
      ignore (Cluster.submit cluster ~size:(1 lsl order))
    end
    else ignore (Cluster.finish cluster (Sm.int g next))
  done

let test_snapshot_roundtrip () =
  with_dir (fun dir ->
      let cluster =
        get_ok ~ctx:"create"
          (Cluster.create ~machine_size:32
             ~policy:(Cluster.Periodic (Pmp_core.Realloc.make_budget 2))
             ~admission_cap:(Some 1.5) ())
      in
      drive_cluster (Sm.create 7) cluster ~steps:120;
      let snap = Snapshot.of_cluster ~seq:120 ~admission_cap:(Some 1.5) cluster in
      let path = Snapshot.save ~dir snap in
      let snap' = get_ok ~ctx:"load" (Snapshot.load path) in
      Alcotest.(check int) "seq" snap.Snapshot.seq snap'.Snapshot.seq;
      let restored = get_ok ~ctx:"restore" (Snapshot.restore snap') in
      get_ok ~ctx:"same state" (Server.same_state cluster restored))

let test_snapshot_latest () =
  with_dir (fun dir ->
      Alcotest.(check bool) "empty dir" true (Snapshot.latest ~dir = None);
      let cluster =
        get_ok ~ctx:"create"
          (Cluster.create ~machine_size:8 ~policy:Cluster.Greedy ())
      in
      let save seq =
        ignore (Snapshot.save ~dir (Snapshot.of_cluster ~seq ~admission_cap:None cluster))
      in
      save 3;
      save 12;
      save 7;
      match Snapshot.latest ~dir with
      | Some (_, 12) -> ()
      | Some (_, seq) -> Alcotest.failf "latest picked seq %d, wanted 12" seq
      | None -> Alcotest.fail "latest found nothing")

(* --- rebuilding from a snapshot ---------------------------------- *)

let policy_of_index i = List.nth all_policies (i mod List.length all_policies)

(* all_policies plus the budgets whose A_M / hybrid arrival counter
   decides when a repack fires at these machine sizes *)
let split_policies =
  all_policies
  @ [
      Cluster.Periodic (Pmp_core.Realloc.make_budget 1);
      Cluster.Periodic (Pmp_core.Realloc.make_budget 2);
      Cluster.Hybrid (Pmp_core.Realloc.make_budget 1);
    ]

type split_op = Sub of int | Fin of int

let split_reply cluster = function
  | Sub size -> Result.map (fun r -> `Sub r) (Cluster.submit cluster ~size)
  | Fin id -> Result.map (fun () -> `Fin) (Cluster.finish cluster id)

(* Split a random request sequence at a random step and rebuild the
   cluster from a snapshot of its state there (export, binary encode,
   decode, import). For every policy the rebuilt cluster must answer
   the rest exactly as the original: every reply, and after every step
   the stats (reallocations and migrations included), the loads and
   the whole exported state — every live placement, hence every move,
   the queue and the allocator's scalars. *)
let split_property =
  QCheck.Test.make
    ~name:"split: a cluster rebuilt from its snapshot answers the rest identically"
    ~count:100
    (QCheck.make
       ~print:(fun (levels, seed, steps, split, capped) ->
         Printf.sprintf "levels=%d seed=%d steps=%d split=%d capped=%b" levels
           seed steps split capped)
       QCheck.Gen.(
         tup5 (int_range 1 6) (int_range 0 1_000_000) (int_range 1 250)
           (int_range 0 250) bool))
    (fun (levels, seed, steps, split, capped) ->
      Helpers.with_seed ~label:"split" seed (fun g ->
          let machine_size = 1 lsl levels in
          let admission_cap = if capped then Some 1.25 else None in
          (* sizes up to twice the machine and ids past the last one,
             so refused requests are part of the sequence *)
          let ops =
            List.init steps (fun i ->
                if i = 0 || Sm.int g 5 < 3 then Sub (1 lsl Sm.int g (levels + 2))
                else Fin (Sm.int g (i + 1)))
          in
          List.for_all
            (fun policy ->
              let a =
                Result.get_ok (Cluster.create ~machine_size ~policy ~admission_cap ())
              in
              let b = ref None in
              List.iteri
                (fun i op ->
                  if i = split mod steps then begin
                    let bytes =
                      Snapshot.encode (Snapshot.of_cluster ~seq:i ~admission_cap a)
                    in
                    b :=
                      Some
                        (get_ok ~ctx:"rebuild"
                           (Result.bind (Snapshot.decode bytes) Snapshot.restore))
                  end;
                  let ra = split_reply a op in
                  match !b with
                  | None -> ()
                  | Some b ->
                      let rb = split_reply b op in
                      if ra <> rb then
                        Alcotest.failf "%s: step %d replies differ"
                          (Cluster.policy_name policy) i;
                      if
                        Cluster.stats a <> Cluster.stats b
                        || Cluster.leaf_loads a <> Cluster.leaf_loads b
                        || Cluster.export a <> Cluster.export b
                      then
                        Alcotest.failf "%s: state differs after step %d"
                          (Cluster.policy_name policy) i)
                ops;
              true)
            split_policies))

(* A fresh daemon recovers nothing, so it skips recovery's round trip
   and serves the cluster [Cluster.create] built. This is that round
   trip, for every policy pmpd serves, with and without an admission
   cap: the empty state, exported, encoded, decoded and restored,
   re-encodes to the same bytes and equals the fresh cluster. *)
let test_empty_state_round_trip () =
  List.iter
    (fun admission_cap ->
      List.iter
        (fun policy ->
          let ctx =
            Printf.sprintf "%s, cap %s" (Cluster.policy_name policy)
              (Option.fold ~none:"none" ~some:string_of_float admission_cap)
          in
          let encode c =
            Snapshot.encode (Snapshot.of_cluster ~seq:0 ~admission_cap c)
          in
          let fresh =
            get_ok ~ctx (Cluster.create ~machine_size:64 ~policy ~admission_cap ())
          in
          let bytes = encode fresh in
          let again =
            get_ok ~ctx (Result.bind (Snapshot.decode bytes) Snapshot.restore)
          in
          Alcotest.(check bool) (ctx ^ ": re-encodes to the same bytes") true
            (encode again = bytes);
          get_ok ~ctx (Server.same_state fresh again))
        split_policies)
    [ None; Some 1.5 ]

(* Recovery refuses a snapshot or WAL that is damaged or inconsistent,
   names the cause and leaves a flight-recorder dump. The state is an
   A_M (copy-branch) cluster on 64 PEs: tasks 0 [0,8), 2 [16,20),
   3 [32,48) and 4 [8,10), all on copy 0, with task 1 finished, and an
   empty WAL. [damage] gets the snapshot's path. *)
let refused_snapshot ~cause damage =
  with_dir (fun dir ->
      let config =
        Server.default_config ~machine_size:64
          ~policy:(Cluster.Periodic (Pmp_core.Realloc.make_budget 2)) ~dir
      in
      let s = Result.get_ok (Server.create config) in
      List.iter
        (fun r -> ignore (Server.handle s r))
        Protocol.
          [ Submit 8; Submit 8; Submit 4; Submit 16; Finish 1; Submit 2; Snapshot ];
      Server.close s;
      let path =
        match Snapshot.latest ~dir with
        | Some (path, 6) -> path
        | _ -> Alcotest.fail "no snapshot at seq 6"
      in
      damage path;
      match Server.create config with
      | Ok _ -> Alcotest.failf "recovery accepted a state with %s" cause
      | Error e ->
          if not (string_contains e cause) then
            Alcotest.failf "refusal %S does not name %S" e cause;
          Alcotest.(check bool) "the refusal left a flight-recorder dump" true
            (Sys.file_exists (Filename.concat dir "flightrec.jsonl")))

let rewrite path f =
  let snap = get_ok ~ctx:"load" (Snapshot.load path) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Snapshot.encode (f snap)))

let with_tasks (snap : Snapshot.t) f =
  let st = snap.Snapshot.state in
  let alloc = st.Cluster.alloc in
  {
    snap with
    Snapshot.state =
      {
        st with
        Cluster.alloc =
          { alloc with Pmp_core.Allocator.tasks = List.map f alloc.Pmp_core.Allocator.tasks };
      };
  }

let place_at ~order ~index =
  Pmp_core.Placement.make ~copy:0 { Pmp_machine.Submachine.order; index }

let test_refuse_flipped_byte () =
  refused_snapshot ~cause:"checksum" (fun path ->
      let s = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      let i = Bytes.length s / 2 in
      Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0x10));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc s))

let test_refuse_overlap () =
  refused_snapshot ~cause:"tasks 0 and 2 overlap on copy 0" (fun path ->
      rewrite path (fun snap ->
          with_tasks snap (fun ((task : Pmp_workload.Task.t), p) ->
              if task.id = 2 then (task, place_at ~order:2 ~index:1)
              else (task, p))))

(* a size-4 task at leaf 2: the encoding stores the first leaf *)
let test_refuse_misaligned () =
  refused_snapshot ~cause:"not aligned to its size" (fun path ->
      rewrite path (fun snap ->
          with_tasks snap (fun ((task : Pmp_workload.Task.t), p) ->
              if task.id = 2 then (task, place_at ~order:1 ~index:1)
              else (task, p))))

let test_refuse_unbalanced () =
  refused_snapshot ~cause:"do not balance" (fun path ->
      rewrite path (fun snap ->
          let st = snap.Snapshot.state in
          {
            snap with
            Snapshot.state = { st with Cluster.completed = st.Cluster.completed + 1 };
          }))

(* 1.7 wrote the event history as JSON; this version refuses it by
   name rather than keep a replay path to read it *)
let test_refuse_legacy_json () =
  refused_snapshot ~cause:"snapshot-0000000006.json is a JSON snapshot"
    (fun path ->
      Sys.remove path;
      Out_channel.with_open_text
        (Filename.concat (Filename.dirname path) "snapshot-0000000006.json")
        (fun oc -> output_string oc "{\"format\": 1, \"seq\": 6, \"events\": []}\n"))

(* pmp 1.14 and earlier could write JSON WAL records; this version
   refuses a log holding one, naming the file, rather than keep a
   second decoder *)
let test_refuse_json_wal () =
  refused_snapshot ~cause:"wal.log: wal record 1 is a JSON record" (fun path ->
      append_bytes
        (Filename.concat (Filename.dirname path) "wal.log")
        "{\"seq\": 7,\"op\": \"submit\",\"id\": 5,\"size\": 1}\n")

(* pmp 1.18 and earlier wrote self-framed version-1 records, each
   opening with the magic and version 1: a log of them is refused by
   name, with how to migrate. The record is a submit of size 8 at seq
   7 with id 5. *)
let test_refuse_v1_wal () =
  refused_snapshot ~cause:"wal.log is a version-1 wal, which pmp 1.18"
    (fun path ->
      append_bytes
        (Filename.concat (Filename.dirname path) "wal.log")
        "\167\001\004\001\007\005\008")

(* A periodic snapshot that fails is retried only once another
   [snapshot_every] mutations have passed, not on every mutation, and
   is counted; no [.tmp] outlives a startup or a successful snapshot. *)
let test_snapshot_failure_retry () =
  with_dir (fun dir ->
      let config =
        {
          (Server.default_config ~machine_size:32 ~policy:Cluster.Greedy ~dir) with
          Server.snapshot_every = 2;
        }
      in
      let touch name = Out_channel.with_open_bin (Filename.concat dir name) ignore in
      let present name = Sys.file_exists (Filename.concat dir name) in
      touch "snapshot-0000000001.bin.tmp";
      let s = Result.get_ok (Server.create config) in
      Alcotest.(check bool) "startup removed the stray tmp" false
        (present "snapshot-0000000001.bin.tmp");
      (* a directory where the seq-2 snapshot's tmp file must go *)
      Unix.mkdir (Filename.concat dir "snapshot-0000000002.bin.tmp") 0o755;
      let submit () = ignore (Server.handle s (Protocol.Submit 1)) in
      submit ();
      submit ();
      Alcotest.(check bool) "seq 2 snapshot failed" false (present "snapshot-0000000002.bin");
      Alcotest.(check bool) "failure counted" true
        (string_contains (Server.metrics s) "pmpd_snapshot_failures_total 1");
      touch "snapshot-0000000003.bin.tmp";
      submit ();
      Alcotest.(check (option int)) "no retry at seq 3" None
        (Option.map snd (Snapshot.latest ~dir));
      submit ();
      Alcotest.(check (option int)) "retried at seq 4" (Some 4)
        (Option.map snd (Snapshot.latest ~dir));
      Alcotest.(check bool) "the snapshot's prune removed the stray tmp" false
        (present "snapshot-0000000003.bin.tmp");
      Server.close s)

(* --- crash recovery ----------------------------------------------- *)

(* A deterministic request script: mostly submissions and completions
   (including completions of already-finished or queued ids — rejected
   or cancelling, both must replay identically), with reads sprinkled
   in to make sure they never perturb the durable state. *)
let script g ~machine_size ~steps =
  let levels = Pmp_util.Pow2.ilog2 machine_size in
  let issued = ref 0 in
  List.init steps (fun _ ->
      match Sm.int g 10 with
      | 0 | 1 | 2 | 3 | 4 ->
          incr issued;
          Protocol.Submit (1 lsl Sm.int g (levels + 1))
      | 5 | 6 | 7 when !issued > 0 -> Protocol.Finish (Sm.int g !issued)
      | 8 when !issued > 0 -> Protocol.Query (Sm.int g !issued)
      | _ -> Protocol.Stats)

(* Drive a server the way the event loop does: handle a small batch,
   then group-commit it — the point where armed crash injection
   fires. *)
let apply ?(batch = 3) server reqs =
  let rec go pending = function
    | [] -> if pending > 0 then Server.commit server
    | r :: rest ->
        ignore (Server.handle server r);
        if pending + 1 >= batch then begin
          Server.commit server;
          go 0 rest
        end
        else go (pending + 1) rest
  in
  go 0 reqs

(* Feed [reqs] until the durable sequence number reaches [k] — the
   reference for "what the crashed process had acknowledged". *)
let rec apply_until_seq server k = function
  | [] -> ()
  | r :: rest ->
      if Server.seq server < k then begin
        ignore (Server.handle server r);
        apply_until_seq server k rest
      end

let crash_recovery =
  QCheck.Test.make
    ~name:"recovery after an injected crash equals uninterrupted execution"
    ~count:40
    (QCheck.make
       ~print:(fun (levels, seed, steps, p, crash_at, snap_every) ->
         Printf.sprintf
           "levels=%d seed=%d steps=%d policy=%d crash_at=%d snap_every=%d"
           levels seed steps p crash_at snap_every)
       QCheck.Gen.(
         map
           (fun ((levels, seed, steps, p), (crash_at, snap_every)) ->
             (levels, seed, steps, p, crash_at, snap_every))
           (pair
              (tup4 (int_range 1 5) (int_range 0 1_000_000) (int_range 5 120)
                 (int_range 0 100))
              (pair (int_range 1 40) (int_range 0 7)))))
    (fun (levels, seed, steps, p, crash_at, snap_every) ->
      Helpers.with_seed ~label:"crash-recovery" seed (fun g ->
          let machine_size = 1 lsl levels in
          let policy = policy_of_index p in
          let reqs = script g ~machine_size ~steps in
          with_dir (fun dir_a ->
              with_dir (fun dir_b ->
                  let config dir crash_after =
                    {
                      (Server.default_config ~machine_size ~policy ~dir) with
                      Server.admission_cap = Some 1.5;
                      snapshot_every = snap_every;
                      (* derived from the printed seed so counterexamples
                         stay reproducible; an in-process "crash" keeps the
                         written file, so [Never] is durability enough *)
                      fsync_policy =
                        (if seed land 1 = 0 then Wal.Group else Wal.Never);
                      crash_after;
                    }
                  in
                  let victim =
                    Result.get_ok (Server.create (config dir_a (Some crash_at)))
                  in
                  let crashed =
                    match apply victim reqs with
                    | () -> false
                    | exception Server.Crash -> true
                  in
                  (* the crash fires at the covering group commit, so the
                     victim may have pushed a few mutations past
                     [crash_at] — all of them durable by then *)
                  let durable_seq = Server.seq victim in
                  (* abandon [victim] without closing: the WAL handle
                     dies with the "process" *)
                  let recovered =
                    match Server.create (config dir_a None) with
                    | Ok s -> s
                    | Error e -> Alcotest.failf "recovery refused: %s" e
                  in
                  let reference =
                    Result.get_ok (Server.create (config dir_b None))
                  in
                  if crashed then apply_until_seq reference durable_seq reqs
                  else apply reference reqs;
                  if Server.seq recovered <> Server.seq reference then
                    Alcotest.failf "recovered seq %d <> reference seq %d"
                      (Server.seq recovered) (Server.seq reference);
                  match
                    Server.same_state (Server.cluster recovered)
                      (Server.cluster reference)
                  with
                  | Ok () -> true
                  | Error e -> Alcotest.failf "state diverged: %s" e))))

(* The group-commit durability contract, spelled out: every mutation
   the server acknowledged (i.e. whose batch was committed) survives a
   crash that happens immediately after — no acked-but-lost appends. *)
let test_group_commit_crash_durability () =
  with_dir (fun dir ->
      let config crash_after =
        {
          (Server.default_config ~machine_size:64 ~policy:Cluster.Greedy ~dir) with
          Server.snapshot_every = 0;
          fsync_policy = Wal.Group;
          crash_after;
        }
      in
      let victim = Result.get_ok (Server.create (config (Some 5))) in
      let reqs = List.init 12 (fun _ -> Protocol.Submit 2) in
      (match apply ~batch:4 victim reqs with
      | () -> Alcotest.fail "crash_after=5 never fired"
      | exception Server.Crash -> ());
      (* the crash fired at the commit covering mutation 5; with
         batch=4 that commit carried mutations 5..8 *)
      Alcotest.(check int) "durable seq at crash" 8 (Server.seq victim);
      let recovered = Result.get_ok (Server.create (config None)) in
      Alcotest.(check int) "acked mutations all recovered" 8
        (Server.seq recovered);
      Alcotest.(check int) "replayed from the WAL" 8
        (Server.recovered_ops recovered);
      Server.close recovered)

let test_recovery_counts_ops () =
  with_dir (fun dir ->
      let config =
        {
          (Server.default_config ~machine_size:16 ~policy:Cluster.Greedy ~dir) with
          Server.snapshot_every = 0;
        }
      in
      let s = Result.get_ok (Server.create config) in
      apply s
        [ Protocol.Submit 4; Protocol.Submit 8; Protocol.Finish 0;
          Protocol.Submit 2 ];
      Server.close s;
      let s' = Result.get_ok (Server.create config) in
      Alcotest.(check int) "replayed ops" 4 (Server.recovered_ops s');
      Alcotest.(check int) "seq" 4 (Server.seq s');
      (* the metrics registry records the recovery *)
      Alcotest.(check bool) "recovery counter" true
        (string_contains (Server.metrics s') "pmpd_recoveries_total 1");
      Server.close s')

(* 16 PEs, greedy, no snapshots *)
let small_config dir =
  {
    (Server.default_config ~machine_size:16 ~policy:Cluster.Greedy ~dir) with
    Server.snapshot_every = 0;
  }

(* Four mutations served through [Server], one commit each, in a fresh
   [dir]; returns the server, the WAL's path, and its size after each
   commit. *)
let four_commits dir =
  let path = Filename.concat dir "wal.log" in
  let s = Result.get_ok (Server.create (small_config dir)) in
  let ends =
    List.map
      (fun r ->
        ignore (Server.handle s r);
        Server.commit s;
        (Unix.stat path).Unix.st_size)
      Protocol.[ Submit 2; Submit 1; Submit 4; Finish 1 ]
  in
  (s, path, ends)

let answers s =
  List.map (fun r -> fst (Server.handle s r)) Protocol.[ Query 0; Query 1; Query 2; Stats ]

(* Damage any byte before the last commit, to 0x00 or to its
   complement, one at a time: every restart refuses, or answers
   [query] and [stats] exactly as acked. A record dropped or altered
   without an error fails. *)
let test_wal_byte_damage () =
  with_dir (fun dir ->
      let s, path, ends = four_commits dir in
      let acked = answers s in
      Server.close s;
      let full = read_file path in
      for i = 0 to List.nth ends 2 - 1 do
        List.iter
          (fun c ->
            write_file path (with_byte full i c);
            match Server.create (small_config dir) with
            | Error _ -> ()
            | Ok r ->
                let got = answers r in
                Server.close r;
                let show l = String.concat "; " (List.map Protocol.encode_response l) in
                if got <> acked then
                  Alcotest.failf "byte %d set to 0x%02x: the restart answers %s, acked %s"
                    i (Char.code c) (show got) (show acked))
          [ '\000'; Char.chr (255 - Char.code full.[i]) ]
      done)

(* A crash mid-write leaves part of the last commit: cut it at every
   length, or keep that many of its bytes and zero the rest (a length
   that landed over a block that did not). The restart drops it; two
   more mutations are acked; after a shutdown and a second restart
   every acked mutation holds, which needs the dropped bytes gone from
   the file before the new ones were appended. *)
let test_wal_torn_tail_cut () =
  with_dir (fun dir ->
      let s, path, ends = four_commits (Filename.concat dir "orig") in
      Server.close s;
      let full = read_file path in
      let start = List.nth ends 2 and fin = List.nth ends 3 in
      let more = Protocol.[ Submit 1; Finish 0 ] in
      let reference =
        Result.get_ok (Server.create (small_config (Filename.concat dir "ref")))
      in
      apply ~batch:1 reference (Protocol.[ Submit 2; Submit 1; Submit 4 ] @ more);
      let trial = Filename.concat dir "trial" in
      for k = 1 to fin - start - 1 do
        List.iter
          (fun (what, bytes) ->
            let ctx = Printf.sprintf "%s at %d of %d" what k (fin - start) in
            rm_rf trial;
            Unix.mkdir trial 0o755;
            write_file (Filename.concat trial "wal.log") bytes;
            let restart () =
              match Server.create (small_config trial) with
              | Ok r -> r
              | Error e -> Alcotest.failf "%s: the restart refused: %s" ctx e
            in
            let r = restart () in
            Alcotest.(check int) (ctx ^ ": recovered seq") 3 (Server.seq r);
            apply ~batch:1 r more;
            Server.close r;
            let r = restart () in
            Alcotest.(check int) (ctx ^ ": seq after the second restart") 5
              (Server.seq r);
            (match
               Server.same_state (Server.cluster r) (Server.cluster reference)
             with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: an acked mutation was lost: %s" ctx e);
            Server.close r)
          [
            ("cut", String.sub full 0 (start + k));
            ( "zeroed",
              String.sub full 0 (start + k) ^ String.make (fin - start - k) '\000' );
          ]
      done;
      Server.close reference)

(* What counts as recovered: an empty wal.log left by a fresh run is
   nothing, a snapshot is something even when no WAL tail follows it. *)
let test_recovery_needs_state () =
  with_dir (fun dir ->
      let config =
        {
          (Server.default_config ~machine_size:16 ~policy:Cluster.Greedy ~dir) with
          Server.snapshot_every = 0;
        }
      in
      let recoveries s =
        Pmp_telemetry.Metrics.Dump.value (Server.metrics s) "pmpd_recoveries_total"
      in
      let s = Result.get_ok (Server.create config) in
      Alcotest.(check (option (float 0.0))) "fresh" (Some 0.0) (recoveries s);
      Server.close s;
      Alcotest.(check bool) "an empty wal.log is left" true
        (Sys.file_exists (Filename.concat dir "wal.log"));
      let s = Result.get_ok (Server.create config) in
      Alcotest.(check (option (float 0.0))) "empty wal.log" (Some 0.0) (recoveries s);
      apply s [ Protocol.Submit 4; Protocol.Snapshot ];
      Server.close s;
      let s = Result.get_ok (Server.create config) in
      Alcotest.(check (option (float 0.0))) "snapshot, empty tail" (Some 1.0)
        (recoveries s);
      Alcotest.(check int) "no tail replayed" 0 (Server.recovered_ops s);
      Alcotest.(check int) "seq" 1 (Server.seq s);
      Server.close s)

(* The snapshots a newer one supersedes must go: after five snapshot
   intervals the directory holds exactly one, and recovering from it
   still equals the uninterrupted run. *)
let test_snapshots_pruned () =
  with_dir (fun dir ->
      with_dir (fun dir_ref ->
          let every = 4 in
          let config dir snapshot_every =
            {
              (Server.default_config ~machine_size:32 ~policy:Cluster.Greedy
                 ~dir)
              with
              Server.snapshot_every;
            }
          in
          (* 20 mutations: three submits, then a finish of the oldest *)
          let reqs =
            List.init (5 * every) (fun i ->
                if i mod 4 = 3 then Protocol.Finish (i / 4)
                else Protocol.Submit (1 lsl (i mod 3)))
          in
          let s = Result.get_ok (Server.create (config dir every)) in
          apply s reqs;
          Alcotest.(check int) "every request mutated" (5 * every)
            (Server.seq s);
          Server.close s;
          let snapshots =
            List.filter
              (fun f -> String.starts_with ~prefix:"snapshot-" f)
              (Array.to_list (Sys.readdir dir))
          in
          Alcotest.(check (list string)) "only the newest snapshot is left"
            [ Printf.sprintf "snapshot-%010d.bin" (5 * every) ]
            snapshots;
          let recovered = Result.get_ok (Server.create (config dir every)) in
          let reference = Result.get_ok (Server.create (config dir_ref 0)) in
          apply reference reqs;
          Alcotest.(check int) "seq" (Server.seq reference)
            (Server.seq recovered);
          get_ok ~ctx:"same state"
            (Server.same_state (Server.cluster recovered)
               (Server.cluster reference));
          Server.close recovered;
          Server.close reference))

let test_recovery_rejects_config_mismatch () =
  with_dir (fun dir ->
      let config policy =
        Server.default_config ~machine_size:16 ~policy ~dir
      in
      let s = Result.get_ok (Server.create (config Cluster.Greedy)) in
      apply s [ Protocol.Submit 4; Protocol.Snapshot ];
      Server.close s;
      match Server.create (config Cluster.Copies) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "policy mismatch must refuse to start")

(* --- sockets ------------------------------------------------------ *)

let expect_placed ~ctx = function
  | Ok (Protocol.Placed (id, _)) -> id
  | Ok r -> Alcotest.failf "%s: unexpected reply %s" ctx (Protocol.encode_response r)
  | Error e -> Alcotest.failf "%s: %s" ctx e

let run_session client =
  let id0 = expect_placed ~ctx:"submit 8" (Client.request client (Protocol.Submit 8)) in
  let _ = expect_placed ~ctx:"submit 4" (Client.request client (Protocol.Submit 4)) in
  (match Client.request client (Protocol.Query id0) with
  | Ok (Protocol.State (_, Protocol.Active _)) -> ()
  | Ok r -> Alcotest.failf "query: unexpected reply %s" (Protocol.encode_response r)
  | Error e -> Alcotest.failf "query: %s" e);
  (match Client.request client (Protocol.Finish id0) with
  | Ok Protocol.Finished -> ()
  | Ok r -> Alcotest.failf "finish: unexpected reply %s" (Protocol.encode_response r)
  | Error e -> Alcotest.failf "finish: %s" e);
  (match Client.request client (Protocol.Submit 3) with
  | Ok (Protocol.Error _) -> ()
  | Ok r ->
      Alcotest.failf "bad submit: unexpected reply %s" (Protocol.encode_response r)
  | Error e -> Alcotest.failf "bad submit: %s" e);
  match Client.request client Protocol.Stats with
  | Ok (Protocol.Stats_reply st) ->
      Alcotest.(check int) "submitted" 2 st.Cluster.submitted;
      Alcotest.(check int) "completed" 1 st.Cluster.completed
  | Ok r -> Alcotest.failf "stats: unexpected reply %s" (Protocol.encode_response r)
  | Error e -> Alcotest.failf "stats: %s" e

let shutdown_server client =
  match Client.request client Protocol.Shutdown with
  | Ok Protocol.Bye -> ()
  | Ok r -> Alcotest.failf "shutdown: unexpected reply %s" (Protocol.encode_response r)
  | Error e -> Alcotest.failf "shutdown: %s" e

(* Ask the daemon [connect] reaches to shut down, if it still listens:
   a no-op once the test's own [shutdown_server] has stopped it. *)
let stop_daemon connect =
  match connect () with
  | Ok c ->
      ignore (Client.request c Protocol.Shutdown);
      Client.close c
  | Error _ -> ()

(* Serve [config] in its own domain on [listener]. However [f] ends,
   the daemon is shut down through [connect] before the join, so a
   failed check fails the test rather than hanging it. *)
let with_served config ~listener ~connect f =
  let server = Result.get_ok (Server.create config) in
  let domain = Domain.spawn (fun () -> Server.serve server ~listeners:[ listener ]) in
  Fun.protect
    ~finally:(fun () ->
      stop_daemon connect;
      Domain.join domain)
    f

let test_unix_socket () =
  with_dir (fun dir ->
      let config = Server.default_config ~machine_size:64 ~policy:Cluster.Greedy ~dir in
      let path = Filename.concat dir "pmp.sock" in
      with_served config ~listener:(Server.listen_unix path)
        ~connect:(fun () -> Client.connect_unix path) (fun () ->
          let client = get_ok ~ctx:"connect" (Client.connect_unix path) in
          run_session client;
          shutdown_server client;
          Client.close client))

let test_unix_socket_binary () =
  with_dir (fun dir ->
      let config = Server.default_config ~machine_size:64 ~policy:Cluster.Greedy ~dir in
      let path = Filename.concat dir "pmp.sock" in
      with_served config ~listener:(Server.listen_unix path)
        ~connect:(fun () -> Client.connect_unix path) (fun () ->
          let client =
            get_ok ~ctx:"connect"
              (Client.connect_unix ~proto:Client.Binary path)
          in
          run_session client;
          shutdown_server client;
          Client.close client))

(* One connection can interleave JSON lines and binary frames: the
   server dispatches on each request's first byte, and every response
   comes back in its request's encoding, in order. *)
let test_mixed_protocol_session () =
  with_dir (fun dir ->
      let config = Server.default_config ~machine_size:64 ~policy:Cluster.Greedy ~dir in
      let path = Filename.concat dir "pmp.sock" in
      with_served config ~listener:(Server.listen_unix path)
        ~connect:(fun () -> Client.connect_unix path) (fun () ->
          let client = get_ok ~ctx:"connect" (Client.connect_unix path) in
          (* pipeline the whole mixed burst before reading anything *)
          let send proto r =
            Client.set_proto client proto;
            get_ok ~ctx:"send" (Client.send client r)
          in
          send Client.Json (Protocol.Submit 8);
          send Client.Binary (Protocol.Submit 4);
          send Client.Json (Protocol.Query 0);
          send Client.Binary Protocol.Stats;
          let recv ctx = get_ok ~ctx (Client.receive client) in
          (match recv "reply 1" with
          | Protocol.Placed (0, _) -> ()
          | r -> Alcotest.failf "reply 1: %s" (Protocol.encode_response r));
          (match recv "reply 2" with
          | Protocol.Placed (1, _) -> ()
          | r -> Alcotest.failf "reply 2: %s" (Protocol.encode_response r));
          (match recv "reply 3" with
          | Protocol.State (0, Protocol.Active _) -> ()
          | r -> Alcotest.failf "reply 3: %s" (Protocol.encode_response r));
          (match recv "reply 4" with
          | Protocol.Stats_reply st ->
              Alcotest.(check int) "submitted" 2 st.Cluster.submitted
          | r -> Alcotest.failf "reply 4: %s" (Protocol.encode_response r));
          Client.set_proto client Client.Binary;
          shutdown_server client;
          Client.close client))

let test_tcp_socket () =
  with_dir (fun dir ->
      let config =
        Server.default_config ~machine_size:64
          ~policy:(Cluster.Periodic (Pmp_core.Realloc.make_budget 2))
          ~dir
      in
      let listener, port = Server.listen_tcp ~host:"127.0.0.1" ~port:0 in
      let connect () = Client.connect_tcp ~host:"127.0.0.1" ~port () in
      with_served config ~listener ~connect (fun () ->
          let client = get_ok ~ctx:"connect" (connect ()) in
          run_session client;
          shutdown_server client;
          Client.close client))

(* Pipelining: write a burst of requests as one blob, then read the
   responses — they must come back complete, in order, one per line. *)
let test_pipelined_batch () =
  with_dir (fun dir ->
      let config = Server.default_config ~machine_size:256 ~policy:Cluster.Copies ~dir in
      let path = Filename.concat dir "pmp.sock" in
      with_served config ~listener:(Server.listen_unix path)
        ~connect:(fun () -> Client.connect_unix path) (fun () ->
          let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
          Unix.connect fd (ADDR_UNIX path);
          let oc = Unix.out_channel_of_descr fd in
          let ic = Unix.in_channel_of_descr fd in
          let n = 200 in
          for i = 1 to n do
            output_string oc
              (Protocol.encode_request (Protocol.Submit (if i mod 2 = 0 then 2 else 1)));
            output_char oc '\n'
          done;
          flush oc;
          for i = 0 to n - 1 do
            match Protocol.decode_response (input_line ic) with
            | Ok (Protocol.Placed (id, _)) ->
                Alcotest.(check int) "ids in submission order" i id
            | Ok r ->
                Alcotest.failf "batch reply %d: %s" i (Protocol.encode_response r)
            | Error e -> Alcotest.failf "batch reply %d: %s" i e
          done;
          let client = get_ok ~ctx:"connect" (Client.connect_unix path) in
          (match Client.request client Protocol.Stats with
          | Ok (Protocol.Stats_reply st) ->
              Alcotest.(check int) "all submissions counted" n st.Cluster.submitted
          | _ -> Alcotest.fail "stats after batch");
          shutdown_server client;
          Client.close client;
          Unix.close fd))

(* Two concurrent clients in their own domains: every reply lands on
   the connection that asked, and nothing is lost or duplicated. *)
let test_concurrent_clients () =
  with_dir (fun dir ->
      let config = Server.default_config ~machine_size:64 ~policy:Cluster.Greedy ~dir in
      let path = Filename.concat dir "pmp.sock" in
      with_served config ~listener:(Server.listen_unix path)
        ~connect:(fun () -> Client.connect_unix path) (fun () ->
          let worker () =
            let client = Result.get_ok (Client.connect_unix path) in
            let ids =
              List.init 25 (fun i ->
                  expect_placed ~ctx:"concurrent submit"
                    (Client.request client (Protocol.Submit (if i mod 3 = 0 then 2 else 1))))
            in
            Client.close client;
            ids
          in
          let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
          let ids1 = Domain.join d1 and ids2 = Domain.join d2 in
          let all = List.sort_uniq compare (ids1 @ ids2) in
          Alcotest.(check int) "50 distinct ids" 50 (List.length all);
          let client = Result.get_ok (Client.connect_unix path) in
          (match Client.request client Protocol.Stats with
          | Ok (Protocol.Stats_reply st) ->
              Alcotest.(check int) "submitted" 50 st.Cluster.submitted
          | _ -> Alcotest.fail "stats after concurrent clients");
          shutdown_server client;
          Client.close client))

(* The headline claim of the binary fast path: ~0 minor words per
   request at steady state. The bench gate enforces the exact budget;
   here a loose ceiling catches gross regressions (an accidental
   closure or string per request would cost tens of words). *)
let test_fast_path_allocation () =
  match Pmp_server.Loadgen.words_per_request ~requests:20_000 () with
  | Error e -> Alcotest.failf "words_per_request: %s" e
  | Ok words ->
      if words > 8.0 then
        Alcotest.failf "fast path allocates %.2f words/request" words

(* --- observability: flight recorder, health, latency attribution --- *)

module Recorder = Pmp_server.Recorder
module Metrics = Pmp_telemetry.Metrics
module Json = Pmp_util.Json

let read_lines path =
  In_channel.with_open_text path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some l -> go (l :: acc)
        | None -> List.rev acc
      in
      go [])

let entry_member ~ctx line name =
  match Json.member name (Json.of_string line) with
  | Some v -> v
  | None -> Alcotest.failf "%s: entry %s lacks %S" ctx line name

let entry_int ~ctx line name =
  match Json.to_int (entry_member ~ctx line name) with
  | Some i -> i
  | None -> Alcotest.failf "%s: %S is not an int in %s" ctx name line

let entry_str ~ctx line name =
  match Json.to_str (entry_member ~ctx line name) with
  | Some s -> s
  | None -> Alcotest.failf "%s: %S is not a string in %s" ctx name line

let entry_ok ~ctx line =
  match entry_member ~ctx line "ok" with
  | Json.Bool b -> b
  | _ -> Alcotest.failf "%s: \"ok\" is not a bool in %s" ctx line

let test_recorder_ring () =
  (match Recorder.create (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative capacity must be rejected");
  let off = Recorder.create 0 in
  Alcotest.(check bool) "cap 0 disabled" false (Recorder.enabled off);
  Recorder.record off ~kind:Recorder.kind_event ~op:0 ~tenant:0 ~size:0 ~seq:0
    ~dur_ns:0 ~ts_us:0 ~ok:true;
  Alcotest.(check int) "disabled ring stays empty" 0
    (List.length (Recorder.entries off));
  let r = Recorder.create 4 in
  Alcotest.(check bool) "enabled" true (Recorder.enabled r);
  Alcotest.(check int) "capacity" 4 (Recorder.capacity r);
  for i = 1 to 10 do
    Recorder.record r ~kind:Recorder.kind_request ~op:1 ~tenant:0 ~size:i
      ~seq:i ~dur_ns:0 ~ts_us:0 ~ok:(i mod 2 = 0)
  done;
  Alcotest.(check int) "total counts overwritten records" 10 (Recorder.total r);
  let es = Recorder.entries r in
  Alcotest.(check int) "ring keeps the last cap records" 4 (List.length es);
  List.iteri
    (fun j e ->
      (* records 7..10 survive, oldest first, indices monotone *)
      Alcotest.(check int) "seq tracks the write" (7 + j) e.Recorder.e_seq;
      Alcotest.(check string) "kind" Recorder.kind_request e.Recorder.e_kind;
      if j > 0 then
        Alcotest.(check int) "indices monotone"
          ((List.nth es (j - 1)).Recorder.e_index + 1)
          e.Recorder.e_index)
    es;
  (* the JSONL rendering is real JSON carrying every field *)
  let line = Recorder.entry_to_json (List.hd es) in
  Alcotest.(check int) "json seq" 7 (entry_int ~ctx:"ring" line "seq");
  Alcotest.(check string) "json kind" "request" (entry_str ~ctx:"ring" line "kind");
  Alcotest.(check bool) "json ok" false (entry_ok ~ctx:"ring" line)

(* The acceptance property for crash injection: serve a real socket,
   trip [crash_after], and the dump written on the way out must parse,
   with its request entries matching the durable WAL tail seq-for-seq. *)
let test_crash_dump_matches_wal_tail () =
  with_dir (fun dir ->
      let config =
        {
          (Server.default_config ~machine_size:64 ~policy:Cluster.Greedy ~dir) with
          Server.snapshot_every = 0;
          recorder_size = 8;
          crash_after = Some 5;
        }
      in
      let server = Result.get_ok (Server.create config) in
      let path = Filename.concat dir "pmp.sock" in
      let listener = Server.listen_unix path in
      let domain =
        Domain.spawn (fun () ->
            match Server.serve server ~listeners:[ listener ] with
            | () -> false
            | exception Server.Crash -> true)
      in
      (* pipeline a burst without reading: the crash severs the server
         before it answers, and waiting for replies would deadlock *)
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Unix.connect fd (ADDR_UNIX path);
      let oc = Unix.out_channel_of_descr fd in
      for _ = 1 to 12 do
        output_string oc (Protocol.encode_request (Protocol.Submit 1));
        output_char oc '\n'
      done;
      flush oc;
      let crashed = Domain.join domain in
      Unix.close fd;
      Alcotest.(check bool) "crash injection fired" true crashed;
      let dump = Server.flightrec_path server in
      Alcotest.(check bool) "dump exists" true (Sys.file_exists dump);
      let lines = read_lines dump in
      let rec_seqs =
        List.filter_map
          (fun l ->
            if entry_str ~ctx:"crash dump" l "kind" = "request" then begin
              Alcotest.(check int) "submit opcode" 1
                (entry_int ~ctx:"crash dump" l "op");
              Alcotest.(check bool) "submit accepted" true
                (entry_ok ~ctx:"crash dump" l);
              Some (entry_int ~ctx:"crash dump" l "seq")
            end
            else None)
          lines
      in
      let wal_seqs =
        List.map fst
          (get_ok ~ctx:"wal after crash"
             (Wal.load (Filename.concat dir "wal.log")))
      in
      if rec_seqs = [] then Alcotest.fail "dump holds no request entries";
      if List.length wal_seqs < List.length rec_seqs then
        Alcotest.failf "recorder saw %d requests but only %d are durable"
          (List.length rec_seqs) (List.length wal_seqs);
      (* the ring keeps the newest records: its seqs are the WAL tail *)
      let tail =
        List.filteri
          (fun i _ ->
            i >= List.length wal_seqs - List.length rec_seqs)
          wal_seqs
      in
      Alcotest.(check (list int)) "recorder matches the WAL tail" tail rec_seqs)

(* The other black-box path: a WAL whose replay contradicts what the
   original run acknowledged (an oracle-violating mutant) must refuse
   to start and leave the flight recorder behind, failed replay
   included. *)
let test_recovery_refusal_dumps () =
  with_dir (fun dir ->
      (* a fresh cluster would assign id 0, not 5: replay must diverge *)
      let _ = write_wal dir [ (1, Wal.Submit { id = 5; size = 8 }) ] in
      let config =
        {
          (Server.default_config ~machine_size:16 ~policy:Cluster.Greedy ~dir) with
          Server.snapshot_every = 0;
          recorder_size = 16;
        }
      in
      (match Server.create config with
      | Ok _ -> Alcotest.fail "mutant WAL must refuse to start"
      | Error e ->
          Alcotest.(check bool) "error names the mismatch" true
            (string_contains e "wal submit expected id"));
      let dump = Filename.concat dir "flightrec.jsonl" in
      Alcotest.(check bool) "refusal leaves a dump" true (Sys.file_exists dump);
      let lines = read_lines dump in
      if lines = [] then Alcotest.fail "dump is empty";
      let kinds = List.map (fun l -> entry_str ~ctx:"mutant" l "kind") lines in
      let oks = List.map (fun l -> entry_ok ~ctx:"mutant" l) lines in
      Alcotest.(check bool) "the failed replay is on record" true
        (List.exists2 (fun k ok -> k = "replay" && not ok) kinds oks);
      (* the last word is the refusal event itself *)
      let last = List.nth lines (List.length lines - 1) in
      Alcotest.(check string) "final entry is an event" "event"
        (entry_str ~ctx:"mutant" last "kind");
      Alcotest.(check bool) "final entry records failure" false
        (entry_ok ~ctx:"mutant" last))

let test_health_opcode () =
  with_dir (fun dir ->
      let config =
        Server.default_config ~machine_size:16 ~policy:Cluster.Greedy ~dir
      in
      let path = Filename.concat dir "pmp.sock" in
      with_served config ~listener:(Server.listen_unix path)
        ~connect:(fun () -> Client.connect_unix path) (fun () ->
          let check proto seq_floor =
            let client =
              get_ok ~ctx:"connect" (Client.connect_unix ~proto path)
            in
            ignore
              (expect_placed ~ctx:"submit"
                 (Client.request client (Protocol.Submit 2)));
            (match Client.request client Protocol.Health with
            | Ok (Protocol.Health_reply h) ->
                Alcotest.(check bool) "ready" true h.Protocol.ready;
                Alcotest.(check bool) "uptime non-negative" true
                  (h.Protocol.uptime_ms >= 0);
                Alcotest.(check bool) "seq advanced" true
                  (h.Protocol.seq >= seq_floor);
                Alcotest.(check int) "fresh start replayed nothing" 0
                  h.Protocol.recovered_ops
            | Ok r -> Alcotest.failf "health: %s" (Protocol.encode_response r)
            | Error e -> Alcotest.failf "health: %s" e);
            Client.close client
          in
          check Client.Json 1;
          check Client.Binary 2;
          let client = get_ok ~ctx:"connect" (Client.connect_unix path) in
          shutdown_server client;
          Client.close client))

let test_rid_echo_over_sockets () =
  with_dir (fun dir ->
      let config =
        Server.default_config ~machine_size:16 ~policy:Cluster.Greedy ~dir
      in
      let path = Filename.concat dir "pmp.sock" in
      with_served config ~listener:(Server.listen_unix path)
        ~connect:(fun () -> Client.connect_unix path) (fun () ->
          let check proto =
            let client =
              get_ok ~ctx:"connect" (Client.connect_unix ~proto path)
            in
            get_ok ~ctx:"send tagged"
              (Client.send client ~rid:42 (Protocol.Submit 4));
            get_ok ~ctx:"send bare" (Client.send client Protocol.Ping);
            (match Client.receive_attr client with
            | Ok (Protocol.Placed _, Some 42, _) -> ()
            | Ok (r, rid, _) ->
                Alcotest.failf "tagged reply %s carried rid %s"
                  (Protocol.encode_response r)
                  (match rid with
                  | Some i -> string_of_int i
                  | None -> "(none)")
            | Error e -> Alcotest.failf "tagged reply: %s" e);
            (match Client.receive_attr client with
            | Ok (Protocol.Pong, None, _) -> ()
            | Ok _ -> Alcotest.fail "bare reply must carry no rid"
            | Error e -> Alcotest.failf "bare reply: %s" e);
            Client.close client
          in
          check Client.Json;
          check Client.Binary;
          let client = get_ok ~ctx:"connect" (Client.connect_unix path) in
          shutdown_server client;
          Client.close client))

(* The reconciliation criterion: with [latency_profile] on, the p99 a
   client scrapes out of the metrics dump must agree with the
   registry's own histogram — same buckets, so within one bucket
   (ratio 2) of each other, and the counts must match the traffic
   exactly. *)
let test_latency_attribution_reconciles () =
  with_dir (fun dir ->
      let config =
        {
          (Server.default_config ~machine_size:64 ~policy:Cluster.Greedy ~dir) with
          Server.latency_profile = true;
        }
      in
      let server = Result.get_ok (Server.create config) in
      let path = Filename.concat dir "pmp.sock" in
      let listener = Server.listen_unix path in
      let domain =
        Domain.spawn (fun () -> Server.serve server ~listeners:[ listener ])
      in
      let dump =
        Fun.protect
          ~finally:(fun () ->
            stop_daemon (fun () -> Client.connect_unix path);
            Domain.join domain)
          (fun () ->
            let client =
              get_ok ~ctx:"connect"
                (Client.connect_unix ~proto:Client.Binary path)
            in
            for _ = 1 to 50 do
              ignore
                (expect_placed ~ctx:"submit"
                   (Client.request client (Protocol.Submit 1)))
            done;
            for i = 0 to 49 do
              match Client.request client (Protocol.Finish i) with
              | Ok Protocol.Finished -> ()
              | Ok r ->
                  Alcotest.failf "finish %d: %s" i (Protocol.encode_response r)
              | Error e -> Alcotest.failf "finish %d: %s" i e
            done;
            let dump = get_ok ~ctx:"metrics" (Client.metrics client) in
            shutdown_server client;
            Client.close client;
            dump)
      in
      (* the domain is joined: the registry is quiescent and ours *)
      let registry_histogram op =
        let hit =
          List.find_map
            (fun (name, labels, _, inst) ->
              match inst with
              | Metrics.I_histogram h
                when name = "pmpd_request_seconds"
                     && labels = [ ("op", op) ] ->
                  Some h
              | _ -> None)
            (Metrics.Registry.entries (Server.registry server))
        in
        match hit with
        | Some h -> h
        | None -> Alcotest.failf "no pmpd_request_seconds{op=%S} registered" op
      in
      List.iter
        (fun op ->
          let h = registry_histogram op in
          Alcotest.(check int)
            (Printf.sprintf "registry counted every %s" op)
            50 (Metrics.Histogram.count h);
          let q_dump, n =
            Option.value ~default:(0.0, 0)
              (Metrics.Dump.quantile ~labels:[ ("op", op) ] ~before:""
                 ~after:dump "pmpd_request_seconds" 0.99)
          in
          Alcotest.(check int) (Printf.sprintf "dump counted every %s" op) 50 n;
          let q_reg = Metrics.Histogram.quantile h 0.99 in
          if not (q_dump > 0.0 && q_reg > 0.0) then
            Alcotest.failf "%s p99 degenerate: dump %g registry %g" op q_dump
              q_reg;
          (* identical buckets, so any gap is dump-formatting noise:
             well inside the ratio-2 bucket width *)
          if q_dump > q_reg *. 2.0 || q_reg > q_dump *. 2.0 then
            Alcotest.failf "%s p99 irreconcilable: dump %g registry %g" op
              q_dump q_reg)
        [ "submit"; "finish" ];
      (* the pipeline stages saw each mutation exactly once *)
      List.iter
        (fun stage ->
          Alcotest.(check (option (float 0.0)))
            (Printf.sprintf "stage %s counted every mutation" stage)
            (Some 100.0)
            (Metrics.Dump.value ~labels:[ ("stage", stage) ] dump
               "pmpd_stage_seconds_count"))
        [ "decode"; "apply"; "wal_append" ])

(* Counters, bucket counts, sums and counts only ever grow within a
   process — across a snapshot too — and the dump's series ordering is
   byte-stable, including across a recovery into a fresh process. *)
let test_metrics_monotone_across_recovery () =
  with_dir (fun dir ->
      let config =
        {
          (Server.default_config ~machine_size:16 ~policy:Cluster.Greedy ~dir) with
          Server.snapshot_every = 0;
        }
      in
      let s = Result.get_ok (Server.create config) in
      apply s [ Protocol.Submit 4; Protocol.Submit 8; Protocol.Finish 0 ];
      let d1 = Server.metrics s in
      apply s [ Protocol.Snapshot; Protocol.Submit 2; Protocol.Submit 1 ];
      let d2 = Server.metrics s in
      let s1 = Metrics.Dump.samples d1 and s2 = Metrics.Dump.samples d2 in
      let series =
        List.map (fun (x : Metrics.Dump.sample) -> (x.name, x.labels))
      in
      let order = Alcotest.(list (pair string (list (pair string string)))) in
      Alcotest.check order "series order is byte-stable" (series s1)
        (series s2);
      List.iter2
        (fun (x1 : Metrics.Dump.sample) (x2 : Metrics.Dump.sample) ->
          let monotone =
            List.exists
              (fun suffix -> String.ends_with ~suffix x1.name)
              [ "_total"; "_count"; "_sum"; "_bucket" ]
          in
          if monotone && x2.value < x1.value then
            Alcotest.failf "%s went backwards across a snapshot: %g -> %g"
              x1.name x1.value x2.value)
        s1 s2;
      Server.close s;
      let s' = Result.get_ok (Server.create config) in
      let d3 = Server.metrics s' in
      Alcotest.check order "series order survives recovery" (series s1)
        (series (Metrics.Dump.samples d3));
      (* the fresh process starts its counters over but records the
         recovery itself: one recovery, two post-snapshot replays *)
      Alcotest.(check (option (float 0.0))) "one recovery" (Some 1.0)
        (Metrics.Dump.value d3 "pmpd_recoveries_total");
      Alcotest.(check (option (float 0.0))) "replayed the WAL tail" (Some 2.0)
        (Metrics.Dump.value d3 "pmpd_recovered_ops_total");
      Server.close s')


(* --- the sharded (multicore) server ------------------------------- *)

module Loadgen = Pmp_server.Loadgen
module Netbuf = Pmp_server.Netbuf
module Wire = Pmp_server.Wire

let stats_of client =
  match Client.request client Protocol.Stats with
  | Ok (Protocol.Stats_reply st) -> st
  | Ok r -> Alcotest.failf "stats: unexpected reply %s" (Protocol.encode_response r)
  | Error e -> Alcotest.failf "stats: %s" e

let metrics_of client = get_ok ~ctx:"metrics" (Client.metrics client)

let sharded_config ?(domains = 4) ~dir () =
  {
    (Server.default_config ~machine_size:64 ~policy:Cluster.Greedy ~dir) with
    Server.snapshot_every = 0;
    domains;
  }

(* Serve [config] in its own domain over a socket in [dir]; [f] gets
   the socket path. However [f] ends, the daemon is shut down before
   the join, as {!with_served} does. *)
let with_sharded config ~dir f =
  let server = get_ok ~ctx:"create" (Server.create config) in
  let path = Filename.concat dir "pmp.sock" in
  let listener = Server.listen_unix path in
  let domain = Domain.spawn (fun () -> Server.serve server ~listeners:[ listener ]) in
  Fun.protect
    ~finally:(fun () ->
      stop_daemon (fun () -> Client.connect_unix path);
      Domain.join domain)
    (fun () -> f path)

let connect path =
  get_ok ~ctx:"connect" (Client.connect_unix ~proto:Client.Binary path)

(* The daemon-wide statistics of a created (not serving) daemon. *)
let merged_stats server =
  Cluster.merge_stats ~machine_size:64
    (Array.to_list
       (Array.map (fun s -> Cluster.stats (Server.cluster s)) (Server.shards server)))

let total_recovered server =
  Array.fold_left (fun n s -> n + Server.recovered_ops s) 0 (Server.shards server)

let drive_service ~domains ~requests ~seed =
  get_ok ~ctx:"service"
    (Loadgen.with_local_service ~machine_size:64 ~domains (fun socket ->
         match Client.connect_unix ~proto:Client.Binary socket with
         | Error e -> Error ("connect: " ^ e)
         | Ok client ->
             let gen = Loadgen.make_gen ~seed ~machine_size:64 in
             let r = Loadgen.drive client gen ~requests ~window:16 () in
             let st = stats_of client in
             Client.close client;
             Result.map (fun o -> (o, st)) r))

(* The headline equivalence: the same deterministic workload through a
   sharded server and through the classic single-core server must land
   on the same machine-wide statistics — same admissions, completions,
   active set size, queue depth, errors. Placement coordinates differ
   (the shards partition the tree); the aggregate state must not. *)
let test_multicore_stats_equivalence () =
  let requests = 600 and seed = 0xC0FFEE in
  let o1, st1 = drive_service ~domains:1 ~requests ~seed in
  let o4, st4 = drive_service ~domains:4 ~requests ~seed in
  Alcotest.(check int) "requests" o1.Loadgen.requests o4.Loadgen.requests;
  Alcotest.(check int) "mutations" o1.Loadgen.mutations o4.Loadgen.mutations;
  Alcotest.(check int) "driver errors" o1.Loadgen.errors o4.Loadgen.errors;
  Alcotest.(check int) "submitted" st1.Cluster.submitted st4.Cluster.submitted;
  Alcotest.(check int) "completed" st1.Cluster.completed st4.Cluster.completed;
  Alcotest.(check int) "active now" st1.Cluster.active_now st4.Cluster.active_now;
  Alcotest.(check int) "active size" st1.Cluster.active_size st4.Cluster.active_size;
  Alcotest.(check int) "queued now" st1.Cluster.queued_now st4.Cluster.queued_now

(* A full session against a sharded server over a socket: submits land
   on every shard (ids interleave), cross-shard query/finish route
   exactly, and the merged metrics dump aggregates the shard
   registries into the single-server series names. *)
let test_multicore_session () =
  with_dir (fun dir ->
      with_sharded (sharded_config ~dir ()) ~dir (fun path ->
          let client = connect path in
          let ids =
            List.init 12 (fun i ->
                expect_placed ~ctx:(Printf.sprintf "submit %d" i)
                  (Client.request client (Protocol.Submit 4)))
          in
          (* ids are unique, and every one queries back as active *)
          Alcotest.(check int) "distinct ids" 12
            (List.length (List.sort_uniq compare ids));
          List.iter
            (fun id ->
              match Client.request client (Protocol.Query id) with
              | Ok (Protocol.State (_, Protocol.Active _)) -> ()
              | Ok r ->
                  Alcotest.failf "query %d: unexpected reply %s" id
                    (Protocol.encode_response r)
              | Error e -> Alcotest.failf "query %d: %s" id e)
            ids;
          (* cross-shard finishes all land *)
          List.iter
            (fun id ->
              match Client.request client (Protocol.Finish id) with
              | Ok Protocol.Finished -> ()
              | Ok r ->
                  Alcotest.failf "finish %d: unexpected reply %s" id
                    (Protocol.encode_response r)
              | Error e -> Alcotest.failf "finish %d: %s" id e)
            ids;
          (* a finished id is gone everywhere *)
          (match Client.request client (Protocol.Query (List.hd ids)) with
          | Ok (Protocol.State (_, Protocol.Unknown)) -> ()
          | Ok r ->
              Alcotest.failf "query gone: unexpected reply %s"
                (Protocol.encode_response r)
          | Error e -> Alcotest.failf "query gone: %s" e);
          let st = stats_of client in
          Alcotest.(check int) "submitted" 12 st.Cluster.submitted;
          Alcotest.(check int) "completed" 12 st.Cluster.completed;
          Alcotest.(check int) "active now" 0 st.Cluster.active_now;
          (* the merged dump speaks the single-server metric names, and
             the per-shard series keep their shard labels *)
          let dump = metrics_of client in
          Alcotest.(check (option (float 0.0))) "merged submissions+finishes"
            (Some 24.0)
            (Metrics.Dump.value dump "pmpd_mutations_total");
          Alcotest.(check bool) "per-shard queue depth series" true
            (string_contains dump "pmpd_shard_queue_depth{shard=\"3\"}");
          shutdown_server client;
          Client.close client))

(* Serve [config] over a socket and run [f] on [clients] fresh
   connections; the daemon is shut down however [f] ends, so a failure
   inside it fails the test rather than hanging it. *)
let served_session config ~dir ~clients f =
  with_sharded config ~dir (fun path ->
      let cs = List.init clients (fun _ -> connect path) in
      Fun.protect
        ~finally:(fun () ->
          shutdown_server (List.hd cs);
          List.iter Client.close cs)
        (fun () -> f cs))

(* [pmpd_p99_load_ratio] divides by the whole machine's L*, at any
   shard count. 17 unit submits on one connection cover every leaf
   once and leaf 0 twice; finishing the 12 tasks at leaves >= 4 leaves
   5 tasks on leaves 0-3, all on shard 0 at K=4: max load 2, the
   machine's L* 1, so the ratio reads 2 — where shard 0's own L*
   (ceil (5/4) = 2) would read 1. *)
let test_load_ratio_whole_machine () =
  List.iter
    (fun domains ->
      with_dir (fun dir ->
          let config =
            {
              (Server.default_config ~machine_size:16 ~policy:Cluster.Greedy ~dir) with
              Server.snapshot_every = 0;
              domains;
            }
          in
          let st, dump =
            served_session config ~dir ~clients:1 (fun cs ->
                let client = List.hd cs in
                let placed =
                  List.init 17 (fun i ->
                      match Client.request client (Protocol.Submit 1) with
                      | Ok (Protocol.Placed (id, p)) -> (id, p.Protocol.base)
                      | r ->
                          Alcotest.failf "submit %d: %s" i
                            (match r with
                            | Ok r -> Protocol.encode_response r
                            | Error e -> e))
                in
                List.iter
                  (fun (id, base) ->
                    if base >= 4 then
                      match Client.request client (Protocol.Finish id) with
                      | Ok Protocol.Finished -> ()
                      | _ -> Alcotest.failf "finish %d" id)
                  placed;
                (stats_of client, metrics_of client))
          in
          let ctx = Printf.sprintf "K=%d" domains in
          Alcotest.(check int) (ctx ^ ": live") 5 st.Cluster.active_now;
          Alcotest.(check int) (ctx ^ ": max load") 2 st.Cluster.max_load;
          Alcotest.(check int) (ctx ^ ": L*") 1 st.Cluster.optimal_now;
          Alcotest.(check (option (float 0.0))) (ctx ^ ": p99 load ratio")
            (Some 2.0)
            (Metrics.Dump.value dump "pmpd_p99_load_ratio")))
    [ 1; 4 ]

(* The mesh places as one machine: a lone connection, homed on shard
   0, of a greedy daemon without a cap gets, from K shards, exactly the
   placements one greedy [Cluster] over the whole machine gives the
   same script — each submit's (base, size), each query's, and the
   final loads — for random scripts of submits of every size up to
   N/K and finishes of live tasks. *)
let test_mesh_places_as_one_cluster () =
  let where = function
    | Ok (Protocol.Placed (id, p)) | Ok (Protocol.State (id, Protocol.Active p)) ->
        (id, (p.Protocol.base, p.Protocol.size))
    | Ok r -> Alcotest.failf "unexpected reply %s" (Protocol.encode_response r)
    | Error e -> Alcotest.failf "request failed: %s" e
  in
  List.iter
    (fun (domains, seed) ->
      with_dir (fun dir ->
          let reference =
            get_ok ~ctx:"cluster"
              (Cluster.create ~machine_size:64 ~policy:Cluster.Greedy ())
          in
          let sizes = Pmp_util.Pow2.ilog2 (64 / domains) + 1 in
          served_session (sharded_config ~domains ~dir ()) ~dir ~clients:1
            (fun cs ->
              let client = List.hd cs in
              let g = Sm.create seed in
              (* live tasks: (served id, reference id, placement) *)
              let live = ref [] in
              for step = 1 to 150 do
                let ctx what =
                  Printf.sprintf "K=%d seed %d step %d: %s" domains seed step what
                in
                match !live with
                | _ :: _ when Sm.int g 3 = 0 ->
                    let ((sid, rid, _) as task) =
                      List.nth !live (Sm.int g (List.length !live))
                    in
                    (match Client.request client (Protocol.Finish sid) with
                    | Ok Protocol.Finished -> ()
                    | _ -> Alcotest.failf "%s" (ctx "finish refused"));
                    get_ok ~ctx:(ctx "reference finish") (Cluster.finish reference rid);
                    live := List.filter (( != ) task) !live
                | _ ->
                    let size = 1 lsl Sm.int g sizes in
                    let rid, want =
                      match Cluster.submit reference ~size with
                      | Ok (Cluster.Placed (rid, p)) ->
                          let sub = p.Pmp_core.Placement.sub in
                          ( rid,
                            ( Pmp_machine.Submachine.first_leaf sub,
                              Pmp_machine.Submachine.size sub ) )
                      | _ -> Alcotest.failf "%s" (ctx "reference did not place")
                    in
                    let sid, got = where (Client.request client (Protocol.Submit size)) in
                    Alcotest.(check (pair int int)) (ctx "submit placement") want got;
                    live := (sid, rid, want) :: !live
              done;
              List.iter
                (fun (sid, _, want) ->
                  Alcotest.(check (pair int int))
                    (Printf.sprintf "K=%d seed %d: query %d" domains seed sid)
                    want
                    (snd (where (Client.request client (Protocol.Query sid)))))
                !live;
              match Client.request client Protocol.Loads with
              | Ok (Protocol.Loads_reply loads) ->
                  Alcotest.(check (array int))
                    (Printf.sprintf "K=%d seed %d: loads" domains seed)
                    (Cluster.leaf_loads reference) loads
              | _ -> Alcotest.fail "loads")))
    [ (2, 1); (2, 2); (4, 3); (4, 4) ]

(* The repack counters carry what [stats] prints as reallocs and moved:
   a periodic d=1 daemon that has repacked reports the same two numbers
   in both, unsharded and summed over two shards, each fed its own
   connection's churn. *)
let test_repack_counters () =
  List.iter
    (fun domains ->
      with_dir (fun dir ->
          let config =
            {
              (Server.default_config ~machine_size:16
                 ~policy:(Cluster.Periodic (Pmp_core.Realloc.make_budget 1))
                 ~dir)
              with
              Server.snapshot_every = 0;
              domains;
            }
          in
          (* per connection: submit 1, 2, finish the oldest, ... *)
          let churn client =
            let live = Queue.create () in
            for i = 0 to 23 do
              if i mod 3 = 2 then
                Option.iter
                  (fun id -> ignore (Client.request client (Protocol.Finish id)))
                  (Queue.take_opt live)
              else
                match Client.request client (Protocol.Submit (1 lsl (i mod 3))) with
                | Ok (Protocol.Placed (id, _)) -> Queue.push id live
                | _ -> ()
            done
          in
          let st, dump =
            served_session config ~dir ~clients:2 (fun cs ->
                List.iter churn cs;
                let client = List.hd cs in
                (stats_of client, metrics_of client))
          in
          let ctx = Printf.sprintf "K=%d" domains in
          Alcotest.(check int) (ctx ^ ": every submit placed") 32
            st.Cluster.submitted;
          Alcotest.(check bool) (ctx ^ ": repacked and moved tasks") true
            (st.Cluster.reallocations > 0 && st.Cluster.tasks_migrated > 0);
          Alcotest.(check (option (float 0.0))) (ctx ^ ": reallocations")
            (Some (float_of_int st.Cluster.reallocations))
            (Metrics.Dump.value dump "pmpd_reallocations_total");
          Alcotest.(check (option (float 0.0))) (ctx ^ ": tasks migrated")
            (Some (float_of_int st.Cluster.tasks_migrated))
            (Metrics.Dump.value dump "pmpd_tasks_migrated_total")))
    [ 1; 2 ]

(* Placement on peers under an admission cap: a single connection
   hashes to shard 0, so submits that stayed home would pile onto one
   quarter of the machine. They spread to the shards of least load and
   headroom instead (the steal counters count the submits placed on a
   peer, once at each end), every such task still finishes exactly
   once, and the books balance. *)
let test_multicore_steal () =
  with_dir (fun dir ->
      let config =
        { (sharded_config ~dir ()) with Server.admission_cap = Some 0.5 }
      in
      with_sharded config ~dir (fun path ->
          let client = connect path in
          (* 24 x size-4 = 96 PEs of demand against a 64-PE machine
             capped at 0.5 per subtree: shard 0 alone (16 PEs) can hold
             at most a few, so admission must spread or queue *)
          let ids = ref [] in
          for i = 1 to 24 do
            match Client.request client (Protocol.Submit 4) with
            | Ok (Protocol.Placed (id, _)) | Ok (Protocol.Queued id) ->
                ids := id :: !ids
            | Ok r ->
                Alcotest.failf "submit %d: unexpected reply %s" i
                  (Protocol.encode_response r)
            | Error e -> Alcotest.failf "submit %d: %s" i e
          done;
          let dump = metrics_of client in
          (* per shard in the merged dump: sum them *)
          let steals dir =
            List.fold_left
              (fun acc (x : Metrics.Dump.sample) ->
                if
                  x.name = "pmpd_shard_steals_total"
                  && List.mem ("dir", dir) x.labels
                then acc +. x.value
                else acc)
              0.0 (Metrics.Dump.samples dump)
          in
          let stolen = steals "out" in
          Alcotest.(check bool) "steals happened" true (stolen > 0.0);
          let stolen_in = steals "in" in
          Alcotest.(check (float 0.0)) "every steal has one receiver" stolen stolen_in;
          (* stolen or not, every task finishes exactly once *)
          List.iter
            (fun id ->
              match Client.request client (Protocol.Finish id) with
              | Ok Protocol.Finished -> ()
              | Ok r ->
                  Alcotest.failf "finish %d: unexpected reply %s" id
                    (Protocol.encode_response r)
              | Error e -> Alcotest.failf "finish %d: %s" id e)
            !ids;
          let st = stats_of client in
          Alcotest.(check int) "submitted" 24 st.Cluster.submitted;
          Alcotest.(check int) "completed" 24 st.Cluster.completed;
          Alcotest.(check int) "nothing left" 0
            (st.Cluster.active_now + st.Cluster.queued_now);
          shutdown_server client;
          Client.close client))

(* Clean shutdown, then recovery: a second create over the same
   directory must replay every shard's WAL, pass every shard's audit
   and reproduce the merged statistics. *)
let test_multicore_recovery () =
  with_dir (fun dir ->
      let config = sharded_config ~dir () in
      let live_stats =
        with_sharded config ~dir (fun path ->
            let client = connect path in
            let gen = Loadgen.make_gen ~seed:7 ~machine_size:64 in
            let o = get_ok ~ctx:"drive" (Loadgen.drive client gen ~requests:300 ~window:8 ()) in
            let st = stats_of client in
            shutdown_server client;
            Client.close client;
            ignore o.Loadgen.elapsed;
            st)
      in
      let m' = get_ok ~ctx:"recover" (Server.create config) in
      Alcotest.(check int) "recovered every mutation" 300 (total_recovered m');
      let st = merged_stats m' in
      Alcotest.(check int) "submitted" live_stats.Cluster.submitted st.Cluster.submitted;
      Alcotest.(check int) "completed" live_stats.Cluster.completed st.Cluster.completed;
      Alcotest.(check int) "active size" live_stats.Cluster.active_size st.Cluster.active_size;
      Alcotest.(check int) "queued" live_stats.Cluster.queued_now st.Cluster.queued_now;
      Server.close m')

(* The shard count a directory was written with is the number of its
   shard-* directories (none: 1), and ids only route under that count:
   every other count is refused, and so is the old single-WAL sharded
   layout, whose marker the message must name. *)
let test_shard_count_fence () =
  let refused ~ctx config =
    match Server.create config with
    | Error e -> e
    | Ok s ->
        Server.close s;
        Alcotest.failf "%s: must refuse the directory" ctx
  in
  with_dir (fun dir ->
      let s = get_ok ~ctx:"k=1" (Server.create (sharded_config ~domains:1 ~dir ())) in
      apply s [ Protocol.Submit 4; Protocol.Submit 8 ];
      Server.close s;
      ignore (refused ~ctx:"k=1 history at k=4" (sharded_config ~dir ())));
  with_dir (fun dir ->
      Server.close (get_ok ~ctx:"k=4" (Server.create (sharded_config ~dir ())));
      ignore (refused ~ctx:"k=4 dir at k=1" (sharded_config ~domains:1 ~dir ()));
      ignore (refused ~ctx:"k=4 dir at k=2" (sharded_config ~domains:2 ~dir ()));
      Server.close (get_ok ~ctx:"k=4 again" (Server.create (sharded_config ~dir ()))));
  with_dir (fun dir ->
      Out_channel.with_open_text (Filename.concat dir "domains") (fun oc ->
          output_string oc "4\n");
      List.iter
        (fun domains ->
          let e = refused ~ctx:"old layout" (sharded_config ~domains ~dir ()) in
          Alcotest.(check bool) "message names the marker" true
            (string_contains e (Filename.concat dir "domains")))
        [ 1; 4 ])

(* Drive a K=4 victim with crash injection over a socket, one request
   at a time: submits (capped, so some go to peers or queue) and finishes of
   random acked tasks, whichever shard owns them. Returns the acked
   live ids, the acked submit/finish counts and the in-flight request
   the crash abandoned. *)
let crash_sharded ~dir ~seed ~crash_at ~snapshot_every =
  let config =
    {
      (sharded_config ~dir ()) with
      Server.snapshot_every;
      admission_cap = Some 0.5;
      crash_after = Some crash_at;
    }
  in
  let server = get_ok ~ctx:"create victim" (Server.create config) in
  let path = Filename.concat dir "pmp.sock" in
  let listener = Server.listen_unix path in
  let domain =
    Domain.spawn (fun () ->
        match Server.serve server ~listeners:[ listener ] with
        | () -> false
        | exception Server.Crash -> true)
  in
  let g = Sm.create seed in
  let client = connect path in
  let live = ref [] and submits = ref 0 and finishes = ref 0 in
  let rec go () =
    let req =
      if !live = [] || Sm.int g 3 > 0 then Protocol.Submit (1 lsl Sm.int g 4)
      else Protocol.Finish (List.nth !live (Sm.int g (List.length !live)))
    in
    match (req, Client.request client req) with
    | Protocol.Submit _, Ok (Protocol.Placed (id, _) | Protocol.Queued id) ->
        incr submits;
        live := id :: !live;
        go ()
    | Protocol.Finish id, Ok Protocol.Finished ->
        incr finishes;
        live := List.filter (( <> ) id) !live;
        go ()
    | _, Ok r ->
        Alcotest.failf "unexpected reply %s" (Protocol.encode_response r)
    | _, Error _ -> req
  in
  let lost = go () in
  Client.close client;
  Alcotest.(check bool) "crash injection fired" true (Domain.join domain);
  ({ config with crash_after = None }, !live, !submits, !finishes, lost)

(* Crash recovery at K=4: the restart replays every shard's WAL and
   passes every shard's audit, its merged counts are exactly the acked
   mutations plus the in-flight one (durable by the time the crash
   fires, unreported), and every acked live id queries back. Shard 0
   holds the connection and places submits on its peers: mutations —
   the lost one too, at times — run on the other shards. *)
let test_sharded_crash_recovery () =
  let off_home = ref 0 in
  List.iter
    (fun (seed, crash_at, snapshot_every) ->
      with_dir (fun dir ->
          let config, live, submits, finishes, lost =
            crash_sharded ~dir ~seed ~crash_at ~snapshot_every
          in
          let submits, finishes =
            match lost with
            | Protocol.Submit _ -> (submits + 1, finishes)
            | _ -> (submits, finishes + 1)
          in
          let recovered = get_ok ~ctx:"recover" (Server.create config) in
          let st = merged_stats recovered in
          Alcotest.(check int) "submitted" submits st.Cluster.submitted;
          Alcotest.(check int) "completed" finishes st.Cluster.completed;
          (* one count across shards: the lost request was mutation
             [crash_at] *)
          Alcotest.(check int) "crash_at mutations durable" crash_at
            (Array.fold_left (fun n c -> n + Server.seq c) 0 (Server.shards recovered));
          Array.iter
            (fun c -> if c != recovered then off_home := !off_home + Server.seq c)
            (Server.shards recovered);
          Server.close recovered;
          with_sharded config ~dir (fun path ->
              let client = connect path in
              List.iter
                (fun id ->
                  match Client.request client (Protocol.Query id) with
                  | Ok (Protocol.State (_, (Protocol.Active _ | Protocol.Queued_task)))
                    ->
                      ()
                  | Ok r ->
                      (* only the lost request may have finished it *)
                      if lost <> Protocol.Finish id then
                        Alcotest.failf "acked id %d: %s" id
                          (Protocol.encode_response r)
                  | Error e -> Alcotest.failf "query %d: %s" id e)
                live;
              shutdown_server client;
              Client.close client)))
    [ (11, 9, 0); (23, 17, 3); (37, 30, 4) ];
  (* the one connection lives on shard 0: placement must have moved work *)
  Alcotest.(check bool) "mutations ran on other shards" true (!off_home > 0)

(* Every shard directory keeps its black box through a crash: a
   well-formed JSONL dump whose entries are all on record. *)
let test_sharded_crash_flightrec () =
  with_dir (fun dir ->
      let _ = crash_sharded ~dir ~seed:5 ~crash_at:12 ~snapshot_every:0 in
      for s = 0 to 3 do
        let dump =
          Filename.concat dir (Printf.sprintf "shard-%d/flightrec.jsonl" s)
        in
        Alcotest.(check bool) (dump ^ " exists") true (Sys.file_exists dump);
        List.iter
          (fun l -> ignore (entry_str ~ctx:dump l "kind"))
          (read_lines dump)
      done)

(* Snapshots bound every shard's recovery: four connections (one per
   shard) make ten mutations each at snapshot_every = 4, so each shard
   directory ends with exactly one snapshot (seq 8, the older one
   pruned) and replays two records; a snapshot request then succeeds
   on every shard. *)
let test_sharded_snapshots () =
  with_dir (fun dir ->
      let config = { (sharded_config ~dir ()) with Server.snapshot_every = 4 } in
      with_sharded config ~dir (fun path ->
          for c = 0 to 3 do
            let client = connect path in
            let ids =
              List.init 5 (fun i ->
                  expect_placed ~ctx:(Printf.sprintf "conn %d submit %d" c i)
                    (Client.request client (Protocol.Submit 2)))
            in
            List.iter
              (fun id ->
                match Client.request client (Protocol.Finish id) with
                | Ok Protocol.Finished -> ()
                | _ -> Alcotest.failf "conn %d: finish %d" c id)
              ids;
            Client.close client
          done;
          let client = connect path in
          let st = stats_of client in
          Alcotest.(check int) "submitted" 20 st.Cluster.submitted;
          Alcotest.(check int) "completed" 20 st.Cluster.completed;
          shutdown_server client;
          Client.close client);
      let recovered = get_ok ~ctx:"recover" (Server.create config) in
      Array.iteri
        (fun s core ->
          let sdir = Filename.concat dir (Printf.sprintf "shard-%d" s) in
          let snaps =
            List.filter
              (String.starts_with ~prefix:"snapshot-")
              (Array.to_list (Sys.readdir sdir))
          in
          Alcotest.(check int) (sdir ^ ": one snapshot") 1 (List.length snaps);
          Alcotest.(check bool) (sdir ^ ": short replay") true
            (Server.recovered_ops core < 4))
        (Server.shards recovered);
      Alcotest.(check int) "all shards" 4 (Array.length (Server.shards recovered));
      Server.close recovered;
      with_sharded config ~dir (fun path ->
          let client = connect path in
          (match Client.request client Protocol.Snapshot with
          | Ok (Protocol.Snapshot_reply paths) ->
              let paths = String.split_on_char ',' paths in
              Alcotest.(check int) "one path per shard" 4 (List.length paths);
              List.iter
                (fun p -> Alcotest.(check bool) p true (Sys.file_exists p))
                paths
          | Ok r ->
              Alcotest.failf "snapshot: unexpected reply %s"
                (Protocol.encode_response r)
          | Error e -> Alcotest.failf "snapshot: %s" e);
          shutdown_server client;
          Client.close client))

(* Latency attribution works per shard and survives the merge: the
   daemon-wide dump of a profiled K=4 service counts apply and fsync
   stage samples. *)
let test_sharded_latency_profile () =
  let _, dump =
    get_ok ~ctx:"service"
      (Loadgen.bench ~domains:4 ~latency_profile:true ~requests:200 ())
  in
  List.iter
    (fun stage ->
      let n =
        Option.value ~default:0.0
          (Metrics.Dump.value ~labels:[ ("stage", stage) ] dump
             "pmpd_stage_seconds_count")
      in
      if n <= 0.0 then Alcotest.failf "no %s stage samples in:\n%s" stage dump)
    [ "apply"; "fsync" ]

(* A JSON request line can never outgrow a frame: one that is still
   unterminated past Wire.max_payload bytes gets a single error reply
   and the buffered input is dropped, instead of buffering (and
   rescanning) without bound. *)
let test_unterminated_line_capped () =
  with_dir (fun dir ->
      let s = get_ok ~ctx:"create" (Server.create (sharded_config ~domains:1 ~dir ())) in
      let inb = Netbuf.create 256 and out = Netbuf.create 256 in
      Netbuf.add_string inb (String.make Wire.max_payload 'x');
      (match Server.handle_conn s inb out ~budget:64 with
      | `Handled 0 -> ()
      | _ -> Alcotest.fail "a line within the cap is just incomplete");
      Netbuf.add_char inb 'x';
      (match Server.handle_conn s inb out ~budget:64 with
      | `Handled 1 -> ()
      | _ -> Alcotest.fail "an over-long line is one (failed) request");
      Alcotest.(check int) "input dropped" 0 (Netbuf.length inb);
      let reply = Netbuf.sub_string out ~off:0 ~len:(Netbuf.length out) in
      (match String.split_on_char '\n' reply with
      | [ line; "" ] -> (
          match Protocol.decode_response line with
          | Ok (Protocol.Error _) -> ()
          | _ -> Alcotest.failf "not an error reply: %s" line)
      | _ -> Alcotest.failf "expected exactly one reply line: %S" reply);
      Server.close s)

(* --- finding messages across reads -------------------------------- *)

module Frame = Pmp_server.Frame

let frame_bytes ?(version = Wire.version) payload =
  let b = Buffer.create (String.length payload + 12) in
  Buffer.add_char b (Char.chr Wire.request_magic);
  Buffer.add_char b (Char.chr version);
  Wire.add_varint b (String.length payload);
  Buffer.add_string b payload;
  Buffer.contents b

let payload_of encode x =
  let b = Buffer.create 32 in
  encode b x;
  Buffer.contents b

(* One message on the wire, paired with what [Frame.read] must report
   for it: the classification, and the payload, line or refusal text. *)
let gen_wire_message =
  QCheck.Gen.(
    let frame p = (frame_bytes p, (Frame.Frame, p)) in
    oneof
      [
        map (fun r -> frame (payload_of Protocol.request_payload r)) gen_request;
        map2
          (fun r rid -> frame (payload_of (Protocol.request_payload_rid ~rid) r))
          gen_request nat;
        map3
          (fun r rid shard ->
            frame
              (payload_of
                 (fun b r -> Protocol.response_payload_rid b ~rid ?shard r)
                 r))
          gen_response nat (opt nat);
        map
          (fun r ->
            let line = Protocol.encode_request r in
            (line ^ "\n", (Frame.Line, line)))
          gen_request;
        map
          (fun r ->
            let version = Wire.version + 1 in
            ( frame_bytes ~version (payload_of Protocol.request_payload r),
              ( Frame.Refused_frame,
                Printf.sprintf "unsupported wire version %d" version ) ))
          gen_request;
        return (frame_bytes "", (Frame.Refused_frame, "empty frame"));
      ])

(* What may end a stream: a garbage length (one that does not end, a
   negative one, one over the cap) or a line that never ends. *)
let gen_wire_tail =
  let varint n = payload_of Wire.add_varint n in
  let garbage len =
    ( String.make 1 (Char.chr Wire.request_magic)
      ^ String.make 1 (Char.chr Wire.version)
      ^ len,
      (Frame.Refused_frame, "malformed frame") )
  in
  QCheck.Gen.(
    frequency
      [
        (18, return None);
        ( 6,
          map
            (fun len -> Some (garbage len))
            (oneofl
               [
                 String.make Wire.max_varint_bytes '\255';
                 varint (-1);
                 varint (Wire.max_payload + 1);
               ]) );
        ( 1,
          return
            (Some
               ( String.make (Wire.max_payload + 1) 'x',
                 ( Frame.Refused_line,
                   Printf.sprintf "request line longer than %d bytes"
                     Wire.max_payload ) )) );
      ])

(* Everything [Frame.read] finds in [chunks], fed one read at a time. *)
let frames_found chunks =
  let nb = Netbuf.create 16 and r = Frame.reader () in
  let rec drain acc =
    match Frame.read r nb with
    | Frame.Incomplete -> acc
    | (Frame.Frame | Frame.Line) as m -> drain ((m, Frame.payload r nb) :: acc)
    | (Frame.Refused_frame | Frame.Refused_line) as m ->
        drain ((m, r.Frame.refusal) :: acc)
  in
  List.rev
    (List.fold_left
       (fun acc chunk ->
         Netbuf.add_string nb chunk;
         drain acc)
       [] chunks)

(* [s] cut at random points into reads of 1..[most] bytes. *)
let cut_reads st ~most s =
  let n = String.length s in
  let rec go off acc =
    if off >= n then List.rev acc
    else
      let k = 1 + Random.State.int st (min (n - off) most) in
      go (off + k) (String.sub s off k :: acc)
  in
  go 0 []

let frame_reads_split_property =
  QCheck.Test.make ~name:"frame reader ignores how input is split into reads"
    ~count:100
    (QCheck.make
       ~print:(fun ((msgs, tail), seed) ->
         Printf.sprintf "seed %d: %s" seed
           (String.concat " | "
              (List.map
                 (fun (s, _) ->
                   if String.length s > 64 then
                     Printf.sprintf "%S... (%d bytes)" (String.sub s 0 64)
                       (String.length s)
                   else Printf.sprintf "%S" s)
                 (msgs @ Option.to_list tail))))
       QCheck.Gen.(
         pair
           (pair (list_size (int_range 0 12) gen_wire_message) gen_wire_tail)
           nat))
    (fun ((msgs, tail), seed) ->
      let body = String.concat "" (List.map fst msgs) in
      let expected = List.map snd (msgs @ Option.to_list tail) in
      let st = Random.State.make [| seed |] in
      let reads =
        match tail with
        | Some (line, _) when String.length line > Wire.max_payload ->
            (* 16 MiB in reads of at most 16 bytes would take a million
               reads, so that line comes in reads of up to 1 MiB *)
            cut_reads st ~most:16 body @ cut_reads st ~most:(1 lsl 20) line
        | Some (t, _) -> cut_reads st ~most:16 (body ^ t)
        | None -> cut_reads st ~most:16 body
      in
      frames_found [ String.concat "" reads ] = expected
      && frames_found reads = expected)

(* --- one op path: every encoding runs the same ops ---------------- *)

(* The flight recorder's [size] is a submit's task size and 0 for any
   other request, in every encoding: a JSON line, a binary frame and a
   rid-tagged frame each submitting 8, then a query. *)
let test_recorder_task_size () =
  with_dir (fun dir ->
      let s =
        get_ok ~ctx:"create"
          (Server.create
             (Server.default_config ~machine_size:64 ~policy:Cluster.Greedy ~dir))
      in
      let inb = Netbuf.create 256 and out = Netbuf.create 256 in
      List.iter (Netbuf.add_string inb)
        [
          Protocol.encode_request (Protocol.Submit 8) ^ "\n";
          Protocol.encode_request_binary (Protocol.Submit 8);
          Protocol.encode_request_binary ~rid:7 (Protocol.Submit 8);
          Protocol.encode_request_binary (Protocol.Query 0);
        ];
      (match Server.handle_conn s inb out ~budget:64 with
      | `Handled 4 -> ()
      | _ -> Alcotest.fail "expected four requests handled");
      Alcotest.(check (list (pair int int)))
        "opcode and size of each request"
        [ (1, 8); (1, 8); (1, 8); (3, 0) ]
        (List.map
           (fun e -> (e.Recorder.e_op, e.Recorder.e_size))
           (Recorder.entries (Server.recorder s)));
      Server.close s)

type encoding = Untagged | Tagged | Json_lines

let encoding_name = function
  | Untagged -> "untagged binary"
  | Tagged -> "rid-tagged binary"
  | Json_lines -> "json"

(* What a plain [Cluster] answers, and the WAL record an accepted
   mutation leaves. *)
let cluster_reply c (req : Protocol.request) =
  let placement = Protocol.placement_of_core in
  match req with
  | Protocol.Submit size -> (
      match Cluster.submit c ~size with
      | Ok (Cluster.Placed (id, p)) ->
          (Protocol.Placed (id, placement p), Some (Wal.Submit { id; size }))
      | Ok (Cluster.Queued id) -> (Protocol.Queued id, Some (Wal.Submit { id; size }))
      | Error e -> (Protocol.Error e, None))
  | Protocol.Finish id -> (
      match Cluster.finish c id with
      | Ok () -> (Protocol.Finished, Some (Wal.Finish { id }))
      | Error e -> (Protocol.Error e, None))
  | Protocol.Query id ->
      ( Protocol.State
          ( id,
            match Cluster.placement c id with
            | Some p -> Protocol.Active (placement p)
            | None ->
                if Cluster.is_queued c id then Protocol.Queued_task
                else Protocol.Unknown ),
        None )
  | Protocol.Stats -> (Protocol.Stats_reply (Cluster.stats c), None)
  | _ -> invalid_arg "cluster_reply"

(* Submits (over-size and non-power-of-two ones too), finishes and
   queries of ids from -1 to two past the submits so far — live,
   queued, finished and never issued — and stats. *)
let served_script g ~steps =
  let submits = ref 0 in
  let some_id () = Sm.int g (!submits + 3) - 1 in
  List.init steps (fun _ ->
      match Sm.int g 10 with
      | 0 | 1 | 2 | 3 ->
          incr submits;
          Protocol.Submit [| 1; 2; 4; 8; 16; 32; 3; 6; 0 |].(Sm.int g 9)
      | 4 | 5 -> Protocol.Finish (some_id ())
      | 6 | 7 | 8 -> Protocol.Query (some_id ())
      | _ -> Protocol.Stats)

(* The script through [Server.handle_conn] of a fresh K=1 server, in
   batches committed as the event loop commits them: the responses read
   back with their rids, the WAL, and whether the server's cluster ends
   as [reference] does. JSON lines carry a rid on even steps. *)
let serve_script ~policy ~admission_cap ~reference encoding reqs =
  with_dir (fun dir ->
      let s =
        get_ok ~ctx:"create"
          (Server.create
             {
               (Server.default_config ~machine_size:16 ~policy ~dir) with
               Server.admission_cap;
               snapshot_every = 0;
             })
      in
      let inb = Netbuf.create 256 and out = Netbuf.create 256 in
      List.iteri
        (fun i req ->
          Netbuf.add_string inb
            (match encoding with
            | Untagged -> Protocol.encode_request_binary req
            | Tagged -> Protocol.encode_request_binary ~rid:i req
            | Json_lines ->
                Protocol.encode_request
                  ?rid:(if i mod 2 = 0 then Some i else None)
                  req
                ^ "\n"))
        reqs;
      while not (Netbuf.is_empty inb) do
        ignore (Server.handle_conn s inb out ~budget:5);
        Server.commit s
      done;
      let r = Frame.reader () in
      let rec responses acc =
        match Frame.read r out with
        | Frame.Incomplete -> List.rev acc
        | Frame.Frame ->
            let p = Frame.payload r out in
            responses
              (get_ok ~ctx:"binary response"
                 (Protocol.decode_response_payload_attr p ~pos:0
                    ~limit:(String.length p))
              :: acc)
        | Frame.Line ->
            responses
              (get_ok ~ctx:"json response"
                 (Protocol.decode_response_attr (Frame.payload r out))
              :: acc)
        | Frame.Refused_frame | Frame.Refused_line ->
            Alcotest.failf "refused response: %s" r.Frame.refusal
      in
      let got = responses [] in
      let same = Server.same_state (Server.cluster s) reference in
      Server.close s;
      (got, get_ok ~ctx:"wal" (Wal.load (Filename.concat dir "wal.log")), same))

let served_equals_cluster =
  QCheck.Test.make
    ~name:"served answers equal a plain cluster's, in every encoding"
    ~count:60
    (QCheck.make
       ~print:(fun (seed, steps, p) ->
         Printf.sprintf "seed=%d steps=%d policy=%d" seed steps p)
       QCheck.Gen.(
         triple (int_range 0 1_000_000) (int_range 1 120)
           (int_range 0 (List.length split_policies - 1))))
    (fun (seed, steps, p) ->
      Helpers.with_seed ~label:"served" seed (fun g ->
          let policy = List.nth split_policies p in
          let admission_cap = Some 1.0 in
          let reqs = served_script g ~steps in
          let reference =
            Result.get_ok (Cluster.create ~machine_size:16 ~policy ~admission_cap ())
          in
          let expected = List.map (cluster_reply reference) reqs in
          let wal =
            List.mapi (fun seq op -> (seq + 1, op)) (List.filter_map snd expected)
          in
          (* the console's and Sim's answers, over a cluster of their own *)
          let bare =
            Result.get_ok (Cluster.create ~machine_size:16 ~policy ~admission_cap ())
          in
          List.iteri
            (fun i (req, (want, _)) ->
              let got = Protocol.answer bare req in
              if got <> want then
                Alcotest.failf "Protocol.answer: step %d (%s): got %s, a cluster answers %s"
                  i (Protocol.encode_request req) (Protocol.encode_response got)
                  (Protocol.encode_response want))
            (List.combine reqs expected);
          List.iter
            (fun encoding ->
              let name = encoding_name encoding in
              let got, got_wal, same =
                serve_script ~policy ~admission_cap ~reference encoding reqs
              in
              if List.length got <> steps then
                Alcotest.failf "%s: %d responses to %d requests" name
                  (List.length got) steps;
              List.iteri
                (fun i ((want, _), (resp, rid, _)) ->
                  if resp <> want then
                    Alcotest.failf "%s: step %d (%s): got %s, a cluster answers %s"
                      name i
                      (Protocol.encode_request (List.nth reqs i))
                      (Protocol.encode_response resp)
                      (Protocol.encode_response want);
                  let echo =
                    match encoding with
                    | Untagged -> None
                    | Tagged -> Some i
                    | Json_lines -> if i mod 2 = 0 then Some i else None
                  in
                  if rid <> echo then Alcotest.failf "%s: step %d: rid not echoed" name i)
                (List.combine expected got);
              if got_wal <> wal then
                Alcotest.failf "%s: the WAL holds %d records, not the %d accepted mutations"
                  name (List.length got_wal) (List.length wal);
              match same with
              | Ok () -> ()
              | Error e -> Alcotest.failf "%s: served cluster differs: %s" name e)
            [ Untagged; Tagged; Json_lines ];
          true))

let suite =
  [
    ("decode errors", `Quick, test_decode_errors);
    ("binary decode errors", `Quick, test_binary_decode_errors);
    ("command parsing", `Quick, test_command_parsing);
    ("wal round-trip", `Quick, test_wal_roundtrip);
    ("wal torn tail", `Quick, test_wal_torn_tail);
    ("wal interior corruption", `Quick, test_wal_interior_corruption);
    ("wal reset", `Quick, test_wal_reset);
    ("wal binary round-trip", `Quick, test_wal_binary_roundtrip);
    ("wal binary torn tail", `Quick, test_wal_binary_torn_tail);
    ("wal binary interior corruption", `Quick, test_wal_binary_interior_corruption);
    ("wal crc32c check value", `Quick, test_wal_crc32c);
    ("wal append and commit allocate nothing", `Quick, test_wal_append_commit_allocation);
    ("fsync policy parsing", `Quick, test_fsync_policy_parse);
    ("policy codec", `Quick, test_policy_codec);
    ("snapshot round-trip", `Quick, test_snapshot_roundtrip);
    ("snapshot latest", `Quick, test_snapshot_latest);
    ("group commit crash durability", `Quick, test_group_commit_crash_durability);
    ("recovery counts ops", `Quick, test_recovery_counts_ops);
    ("wal byte damage refused or harmless", `Quick, test_wal_byte_damage);
    ("wal torn tail cut before appending", `Quick, test_wal_torn_tail_cut);
    ("recovery needs a snapshot or a wal tail", `Quick, test_recovery_needs_state);
    ("empty state round-trips for every policy", `Quick, test_empty_state_round_trip);
    ("superseded snapshots pruned", `Quick, test_snapshots_pruned);
    ("recovery rejects config mismatch", `Quick, test_recovery_rejects_config_mismatch);
    ("recovery refuses a flipped byte", `Quick, test_refuse_flipped_byte);
    ("recovery refuses overlapping copies", `Quick, test_refuse_overlap);
    ("recovery refuses a misaligned placement", `Quick, test_refuse_misaligned);
    ("recovery refuses unbalanced counters", `Quick, test_refuse_unbalanced);
    ("recovery refuses a legacy json snapshot", `Quick, test_refuse_legacy_json);
    ("recovery refuses a json wal", `Quick, test_refuse_json_wal);
    ("recovery refuses a version-1 wal", `Quick, test_refuse_v1_wal);
    ("failed snapshot retried next interval", `Quick, test_snapshot_failure_retry);
    ("unix socket session", `Quick, test_unix_socket);
    ("unix socket session, binary", `Quick, test_unix_socket_binary);
    ("mixed-protocol session", `Quick, test_mixed_protocol_session);
    ("tcp socket session", `Quick, test_tcp_socket);
    ("pipelined batch", `Quick, test_pipelined_batch);
    ("concurrent clients", `Quick, test_concurrent_clients);
    ("fast path allocation", `Quick, test_fast_path_allocation);
    ("flight recorder ring", `Quick, test_recorder_ring);
    ("crash dump matches wal tail", `Quick, test_crash_dump_matches_wal_tail);
    ("recovery refusal dumps recorder", `Quick, test_recovery_refusal_dumps);
    ("health opcode", `Quick, test_health_opcode);
    ("request ids over sockets", `Quick, test_rid_echo_over_sockets);
    ("latency attribution reconciles", `Quick, test_latency_attribution_reconciles);
    ("metrics monotone across recovery", `Quick, test_metrics_monotone_across_recovery);
    ("multicore stats equivalence", `Quick, test_multicore_stats_equivalence);
    ("multicore session", `Quick, test_multicore_session);
    ("load ratio over the whole machine", `Quick, test_load_ratio_whole_machine);
    ("mesh places as one cluster", `Quick, test_mesh_places_as_one_cluster);
    ("repack counters equal stats", `Quick, test_repack_counters);
    ("multicore stealing", `Quick, test_multicore_steal);
    ("multicore recovery", `Quick, test_multicore_recovery);
    ("shard-count fence", `Quick, test_shard_count_fence);
    ("sharded crash recovery", `Quick, test_sharded_crash_recovery);
    ("sharded crash keeps every flight recorder", `Quick, test_sharded_crash_flightrec);
    ("sharded snapshots bound recovery", `Quick, test_sharded_snapshots);
    ("sharded latency profile", `Quick, test_sharded_latency_profile);
    ("unterminated json line capped", `Quick, test_unterminated_line_capped);
    ("recorder size is the task size", `Quick, test_recorder_task_size);
  ]
  @ Helpers.qtests
      [
        request_roundtrip; response_roundtrip; binary_request_equiv;
        binary_response_equiv; rid_request_roundtrip; rid_response_roundtrip;
        split_property; crash_recovery; frame_reads_split_property;
        served_equals_cluster; wal_damage_property;
      ]
