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
@@ -449,7 +449,6 @@
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
@@ -306,7 +306,6 @@
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
@@ -907,7 +907,7 @@
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
@@ -895,7 +895,6 @@
   | Ok () ->
       let ta = now t in
       t.seq <- t.seq + 1;
-      Wal.append_finish t.wal ~seq:t.seq ~id:lid;
       after_mutation t;
       if t.timed then observe_stages t td ta ~wal:true;
       Protocol.add_finished buf;
EOF

# The router merges its shards' max-type gauges by max, not by sum.
mutant router-merges-max-gauges <<'EOF'
--- a/lib/federation/router.ml
+++ b/lib/federation/router.ml
@@ -417,8 +417,7 @@
       ( Protocol.Metrics_reply
           (router_dump
           ^ with_load_ratio t
-              (Metrics.merge_prometheus
-                 ~max_names:Pmp_server.Server.merge_max_names shard_dumps)),
+              (Metrics.merge_prometheus shard_dumps)),
         false )
   | Protocol.Snapshot ->
       ( Protocol.Error "snapshots are per-shard; connect to a shard directly",
EOF

# The router reports its own federation-wide load ratio, not the max
# of its shards' ratios, each over the shard's own L*.
mutant router-load-ratio-federation <<'EOF'
--- a/lib/federation/router.ml
+++ b/lib/federation/router.ml
@@ -417,8 +417,7 @@
       ( Protocol.Metrics_reply
           (router_dump
-          ^ with_load_ratio t
-              (Metrics.merge_prometheus
-                 ~max_names:Pmp_server.Server.merge_max_names shard_dumps)),
+          ^ Metrics.merge_prometheus
+              ~max_names:Pmp_server.Server.merge_max_names shard_dumps),
         false )
   | Protocol.Snapshot ->
       ( Protocol.Error "snapshots are per-shard; connect to a shard directly",
EOF

# pmpd's load ratio divides by the whole machine's L*, not a shard's.
mutant load-ratio-whole-machine <<'EOF'
--- a/lib/server/server.ml
+++ b/lib/server/server.ml
@@ -472,9 +472,7 @@
         Metrics.Gauge.set t.ins.g_shard_queue (float_of_int s.Cluster.queued_now);
         Atomic.set m.queued_pub.(t.shard) s.Cluster.queued_now;
         Atomic.set m.active_pub.(t.shard) s.Cluster.active_size;
-        Pmp_util.Pow2.ceil_div
-          (Array.fold_left (fun n a -> n + Atomic.get a) 0 m.active_pub)
-          m.plan.Sharding.machine_size
+        s.Cluster.optimal_now
   in
   Metrics.Ratio_window.push t.ratios ~max_load:s.Cluster.max_load ~optimal

EOF

# A WAL holding a JSON record, which pmp 1.14 and earlier could write,
# is refused by name rather than dropped as a torn tail.
mutant wal-refuses-json <<'EOF'
--- a/lib/server/wal.ml
+++ b/lib/server/wal.ml
@@ -193,14 +193,6 @@
     let len = String.length data in
     let rec parse idx pos last_seq acc =
       if pos >= len then Ok (List.rev acc)
-      else if data.[pos] = '{' then
-        Error
-          (Printf.sprintf
-             "%s: wal record %d is a JSON record, which pmp 1.14 and earlier \
-              could write and this version does not read; to migrate, serve \
-              this directory with pmp 1.14 and send it `snapshot` (which \
-              empties the log) then `shutdown`, or serve a fresh --dir"
-             file (idx + 1))
       else if Char.code data.[pos] <> Wire.wal_magic then
         (* no record opens here: a final line of such bytes is a torn
            write (a zero-filled tail after power loss reads so) and
EOF

if [ -n "$survivors" ] || [ -n "$hung" ]; then
  if [ -n "$survivors" ]; then echo "mutants: survived:$survivors" >&2; fi
  if [ -n "$hung" ]; then echo "mutants: hung:$hung" >&2; fi
  exit 1
fi
echo "mutants: every mutant caught"
