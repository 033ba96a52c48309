#!/bin/sh
# Mutation audit: the test suite must catch the removal of every
# safety check listed below.
#
#   sh ci/mutants.sh [WORKDIR]
#
# Copies this checkout (tracked and untracked files, not ignored ones)
# to WORKDIR/src, checks that the copy passes `dune runtest`, then for
# each mutant applies its patch (the removal of one check), builds,
# requires `dune runtest` to fail, and reverts the patch. A patch that
# no longer applies, or a mutant that does not build, fails the run,
# so the list cannot rot unnoticed. Every `dune runtest` runs under a
# time limit ($limit below): a suite that hangs on a mutant instead of
# failing fails the run too, by name. Builds use the release profile,
# so a removal that leaves a name unused still compiles. WORKDIR
# (default _mutants, which dune does not scan) keeps each patch and
# its logs. Checks the suite does not catch yet are listed in
# ci/README.md, not here.
set -eu

# seconds one `dune runtest` may take (the whole suite takes ~30 s)
limit=600

root=$(cd "$(dirname "$0")/.." && pwd)
work=${1:-_mutants}
mkdir -p "$work"
work=$(cd "$work" && pwd)
src=$work/src
rm -rf "$src"
mkdir -p "$src"
# every file git would see, less those deleted in the working tree
(cd "$root" && git ls-files -co --exclude-standard |
  while read -r f; do if [ -e "$f" ]; then echo "$f"; fi; done |
  tar -T - -cf -) | tar -xf - -C "$src"

dune_in_copy() {
  dune "$@" --root "$src" --profile release
}

# `dune runtest` in the copy, logged to $1; prints how it ended:
# passed, failed, or hung (cut at the time limit)
runtest_in_copy() {
  status=0
  timeout -k 10 "$limit" dune runtest --root "$src" --profile release \
    > "$1" 2>&1 || status=$?
  case $status in
    0) echo passed ;;
    124 | 137) echo hung ;;
    *) echo failed ;;
  esac
}

echo "mutants: baseline"
case $(runtest_in_copy "$work/baseline.log") in
  passed) ;;
  hung)
    echo "mutants: the unmutated copy's tests hung past ${limit}s (see $work/baseline.log)" >&2
    exit 1 ;;
  *)
    echo "mutants: the unmutated copy fails its tests (see $work/baseline.log)" >&2
    exit 1 ;;
esac

survivors=""
hung=""

# mutant NAME < PATCH
mutant() {
  patch_file=$work/$1.patch
  cat > "$patch_file"
  if ! patch -p1 -d "$src" --forward --batch --quiet < "$patch_file"; then
    echo "mutants: $1: the patch no longer applies" >&2
    exit 1
  fi
  if ! dune_in_copy build @all > "$work/$1.build.log" 2>&1; then
    echo "mutants: $1: does not build (see $work/$1.build.log)" >&2
    exit 1
  fi
  case $(runtest_in_copy "$work/$1.log") in
    passed)
      echo "mutants: $1: SURVIVED, the suite passes without the check"
      survivors="$survivors $1" ;;
    hung)
      echo "mutants: $1: HUNG, the suite did not finish within ${limit}s"
      hung="$hung $1" ;;
    *) echo "mutants: $1: caught" ;;
  esac
  patch -p1 -R -d "$src" --batch --quiet < "$patch_file"
}

# A snapshot whose bytes no longer match its digest must be refused.
mutant snapshot-checksum <<'EOF'
--- a/lib/server/snapshot.ml
+++ b/lib/server/snapshot.ml
@@ -217,13 +217,10 @@
          (Char.code s.[String.length magic]))
   else begin
     let limit = n - digest_len in
-    if Digest.substring s 0 limit <> String.sub s limit digest_len then
-      Error "checksum mismatch: the snapshot is corrupt"
-    else
-      match decode_body s limit with
-      | t -> Ok t
-      | exception Bad m -> Error m
-      | exception Wire.Corrupt m -> Error m
+    match decode_body s limit with
+    | t -> Ok t
+    | exception Bad m -> Error m
+    | exception Wire.Corrupt m -> Error m
   end

 (* ------------------------------------------------------------------ *)
EOF

# Cluster refuses to place a task id twice.
mutant assign-already-placed <<'EOF'
--- a/lib/cluster/cluster.ml
+++ b/lib/cluster/cluster.ml
@@ -137,8 +137,6 @@

 let checked_assign (alloc : Allocator.t) (task : Task.t) =
   let table = alloc.Allocator.table in
-  if Ptable.mem table task.id then
-    invalid_arg (Printf.sprintf "Cluster: task %d is already placed" task.id);
   let resp = alloc.Allocator.assign task in
   check_moves table resp.Allocator.moves;
   resp
EOF

# Cluster refuses a move its allocator's table does not show.
mutant assign-moves-landed <<'EOF'
--- a/lib/cluster/cluster.ml
+++ b/lib/cluster/cluster.ml
@@ -140,7 +140,6 @@
   if Ptable.mem table task.id then
     invalid_arg (Printf.sprintf "Cluster: task %d is already placed" task.id);
   let resp = alloc.Allocator.assign task in
-  check_moves table resp.Allocator.moves;
   resp

 let place t task =
EOF

# The router's stats polls feed the routing index.
mutant router-poll-feeds-index <<'EOF'
--- a/lib/federation/router.ml
+++ b/lib/federation/router.ml
@@ -419,7 +419,6 @@
   Array.iteri
     (fun sx -> function
       | Some (Protocol.Stats_reply s) ->
-          Route.observe t.route sx s;
           Metrics.Gauge.set t.shardv.(sx).g_load
             (float_of_int (Route.load t.route sx))
       | _ -> ())
EOF

# A rebalance round's audit refreshes the summaries it touched.
mutant rebalance-audit-refreshes <<'EOF'
--- a/lib/federation/route.ml
+++ b/lib/federation/route.ml
@@ -355,7 +355,6 @@
   if up t sx then
     match call sx Protocol.Stats with
     | Ok (Protocol.Stats_reply s) -> (
-        observe t sx s;
         match call sx Protocol.Loads with
         | Ok (Protocol.Loads_reply loads) ->
             let sum = Array.fold_left ( + ) 0 loads in
EOF

# pmpd answers a query of a queued task "queued", in every encoding.
mutant query-reports-queued <<'EOF'
--- a/lib/server/server.ml
+++ b/lib/server/server.ml
@@ -943,7 +943,7 @@
   (match Cluster.placement t.cluster lid with
   | Some p -> add_at t Protocol.add_active buf gid p
   | None ->
-      if Cluster.is_queued t.cluster lid then Protocol.add_queued_task buf gid
+      if Cluster.is_queued t.cluster lid then Protocol.add_unknown buf gid
       else Protocol.add_unknown buf gid);
   if t.timed then observe_stages t td (Unix.gettimeofday ()) ~wal:false;
   true
EOF

# pmpd's finish appends its WAL record before the ack can leave.
mutant finish-appends-wal <<'EOF'
--- a/lib/server/server.ml
+++ b/lib/server/server.ml
@@ -931,7 +931,6 @@
   | Ok () ->
       let ta = now t in
       t.seq <- t.seq + 1;
-      Wal.append_finish t.wal ~seq:t.seq ~id:lid;
       after_mutation t;
       if t.timed then observe_stages t td ta ~wal:true;
       Protocol.add_finished buf;
EOF

# The fan-out merge, the mesh's and the router's, merges max-type
# gauges by max, not by sum.
mutant merges-max-gauges <<'EOF'
--- a/lib/server/server.ml
+++ b/lib/server/server.ml
@@ -222,7 +222,7 @@
               (Array.to_list parts)))
   | Protocol.Metrics ->
       Protocol.Metrics_reply
-        (Metrics.merge_prometheus ~max_names:merge_max_names
+        (Metrics.merge_prometheus
            (each (function Protocol.Metrics_reply d -> Some d | _ -> None)))
   | _ -> invalid_arg "Server.merge_parts: not a stats, loads or metrics request"
 
EOF

# The router reports its own federation-wide load ratio, not the max
# of its shards' ratios, each over the shard's own L*.
mutant router-load-ratio-federation <<'EOF'
--- a/lib/federation/router.ml
+++ b/lib/federation/router.ml
@@ -387,7 +387,7 @@
       let router_dump = Metrics.prometheus t.registry in
       ( (match Server.merge_parts ~sizes:t.shard_sizes req (broadcast t req) with
         | Protocol.Metrics_reply shards ->
-            Protocol.Metrics_reply (router_dump ^ with_load_ratio t shards)
+            Protocol.Metrics_reply (router_dump ^ shards)
         | r -> r),
         false )
   | Protocol.Snapshot ->
EOF

# pmpd's load ratio divides by the whole machine's L*, not a shard's.
mutant load-ratio-whole-machine <<'EOF'
--- a/lib/server/server.ml
+++ b/lib/server/server.ml
@@ -507,9 +507,7 @@
     | Some m ->
         Metrics.Gauge.set t.ins.g_shard_queue (float_of_int s.Cluster.queued_now);
         publish_load t m ~active_size:s.Cluster.active_size;
-        Pmp_util.Pow2.ceil_div
-          (Array.fold_left (fun n a -> n + Atomic.get a) 0 m.active_pub)
-          t.plan.Sharding.machine_size
+        s.Cluster.optimal_now
   in
   Metrics.Ratio_window.push t.ratios ~max_load:s.Cluster.max_load ~optimal
 
EOF

# A sharded pmpd places each submit by the shards' load summaries,
# not always on the connection's home shard.
mutant mesh-places-by-summaries <<'EOF'
--- a/lib/server/server.ml
+++ b/lib/server/server.ml
@@ -1163,7 +1163,7 @@
       false
   | Some m ->
       let dest =
-        if Pmp_util.Pow2.is_pow2 size then place t m size else t.shard
+        if Pmp_util.Pow2.is_pow2 size then t.shard else t.shard
       in
       if dest = t.shard then submit_here t buf size
       else begin
EOF

# A WAL holding a JSON record, which pmp 1.14 and earlier could write,
# is refused by name rather than dropped as a torn tail.
mutant wal-refuses-json <<'EOF'
--- a/lib/server/wal.ml
+++ b/lib/server/wal.ml
@@ -277,14 +277,6 @@
     in
     let magic = Char.chr Wire.wal_magic in
     if len = 0 || (len = 1 && s.[0] = magic) then loaded 0 []
-    else if s.[0] = '{' then
-      Error
-        (Printf.sprintf
-           "%s: wal record 1 is a JSON record, which pmp 1.14 and earlier \
-            could write and this version does not read; to migrate, serve \
-            this directory with pmp 1.14 and send it `snapshot` (which \
-            empties the log) then `shutdown`, or serve a fresh --dir"
-           file)
     else if s.[0] = magic && Char.code s.[1] = 1 then
       Error
         (Printf.sprintf
EOF

# A WAL frame verifies only when its CRC-32C matches.
mutant wal-frame-checksum <<'EOF'
--- a/lib/server/wal.ml
+++ b/lib/server/wal.ml
@@ -200,9 +200,6 @@
       | exception Wire.Corrupt _ -> -1
       | p ->
           if n <= 0 || n > len - p - 4 then -1
-          else if
-            crc32c (Bytes.unsafe_of_string s) pos (p + n - pos) <> u32_le s (p + n)
-          then -1
           else p + n + 4)
 
 (* The first offset at or after [pos] where a frame verifies, or -1. *)
EOF

# A WAL frame that fails, with a verifying frame after it, is damage
# and refused, not a torn tail to drop.
mutant wal-interior-damage <<'EOF'
--- a/lib/server/wal.ml
+++ b/lib/server/wal.ml
@@ -271,9 +271,7 @@
           (* a frame that fails is a torn tail only if none verifies
              after it; its length may be the damaged byte, so look from
              its next byte on *)
-          match next_frame s (pos + 1) len with
-          | -1 -> loaded pos acc
-          | next -> damaged file (Printf.sprintf "wal frame %d" idx) pos next
+          loaded pos acc
     in
     let magic = Char.chr Wire.wal_magic in
     if len = 0 || (len = 1 && s.[0] = magic) then loaded 0 []
EOF

# Recovery cuts a dropped torn tail off wal.log before appending.
mutant wal-cuts-torn-tail <<'EOF'
--- a/lib/server/server.ml
+++ b/lib/server/server.ml
@@ -488,7 +488,7 @@
     let cut = wal.Wal.length - wal.Wal.verified in
     if cut = 0 then Ok ()
     else
-      match Unix.truncate wal_path wal.Wal.verified with
+      match () with
       | () ->
           Printf.eprintf "pmpd: %s: cut a torn tail of %d bytes\n%!" wal_path cut;
           Ok ()
EOF

# A bench-regress row of the drift kind fails a value past the
# baseline's value x (1 + tolerance).
mutant gate-drift <<'EOF'
--- a/bench/gates.ml
+++ b/bench/gates.ml
@@ -230,7 +230,7 @@
           | Same, _ -> test (same b) ("= baseline " ^ brief b) v
           | _, Some b ->
               let c = b *. (1.0 +. tolerance) in
-              test (number (fun x -> x <= c))
+              test (fun _ -> true)
                 (Printf.sprintf "<= %g, baseline %g + %.0f%%" c b (tolerance *. 100.0))
                 v
           | _, None -> (Fail, "the baseline's value is not a number")))
EOF

# A bench-regress entry the baseline has and the run lacks (a case, a
# load-index size, a scenario) is judged, and fails its rows.
mutant gate-missing-row <<'EOF'
--- a/bench/gates.ml
+++ b/bench/gates.ml
@@ -160,7 +160,7 @@
         if step <> "*" then [ step ]
         else
           let own = fields run in
-          match own @ List.filter (fun k -> not (List.mem k own)) (fields base) with
+          match own with
           | [] -> [ "*" ]
           | keys -> keys
       in
EOF

# A load-index add recombines every aggregate slot a child's change
# can reach: slots lo+1..hi+1 of the parent, not just up to hi.
mutant index-dirty-range <<'EOF'
--- a/lib/index/load_index.ml
+++ b/lib/index/load_index.ml
@@ -85,7 +85,7 @@
     let or_ = ol + s in
     let p = t.pending.((1 lsl d) + r) in
     let first = ref (-1) and last = ref (-1) in
-    for e = (if lo = 0 then 0 else lo + 1) to hi + 1 do
+    for e = (if lo = 0 then 0 else lo + 1) to hi do
       let x =
         if e = 0 then p + max t.mm.(ol) t.mm.(or_)
         else p + min t.mm.(ol + e - 1) t.mm.(or_ + e - 1)
EOF

if [ -n "$survivors" ] || [ -n "$hung" ]; then
  if [ -n "$survivors" ]; then echo "mutants: survived:$survivors" >&2; fi
  if [ -n "$hung" ]; then echo "mutants: hung:$hung" >&2; fi
  exit 1
fi
echo "mutants: every mutant caught"
