#!/bin/sh
# Federate three pmpd shards, crash one mid-stream, bring it back.
#
#   sh ci/fed_failover.sh [WORKDIR]
#
# Three capped shard daemons (--cap 1.5, so the victim holds a queued
# backlog) serve behind one `pmp fed serve`. Shard 1 dies by crash
# injection after its 40th mutation, well inside a 20k-request
# rid-checked `pmp client bench` through the router. The bench must
# verify every response's rid and report per-shard attribution, and
# `pmp fed status` must then show the victim DOWN with at least one
# mark-down and one re-admitted task. The victim restarts on its own
# state directory; a router probe must bring it back within 30 s with
# no rebalance-audit failure, and a second rid-checked bench must pass.
# The router and all three shards must then exit 0 on `shutdown`.
# State and transcripts go to WORKDIR (default fed-failover), replaced
# on every run; a failed run first dumps the router's flight recorder
# there.
set -eu
cd "$(dirname "$0")/.."
WORK=${1:-fed-failover}
. ci/daemon.sh
rm -rf "$WORK"
mkdir -p "$WORK"
FED=$WORK/fed-state
ROUTER=

on_failure() {
  [ -z "$ROUTER" ] || { kill -USR1 "$ROUTER" 2>/dev/null && sleep 1; } || true
}

# shard K [FLAGS...]: start shard K on $WORK/shard-K
shard() {
  dir=$WORK/shard-$1
  shift
  start "$dir.log" "$dir/pmp.sock" serve -m 64 -a greedy --dir "$dir" \
    --socket "$dir/pmp.sock" --cap 1.5 --fsync-policy=group "$@"
}

# count WORDS FILE: the number `fed status` printed before WORDS
count() {
  sed -n "s/.* \([0-9][0-9]*\) $1.*/\1/p" "$2"
}

bench() {
  $PMP client bench --socket "$FED/fed.sock" --rid -n "$1"
}

shard 0
SHARD0=$PID
shard 1 --crash-after 40
VICTIM=$PID
shard 2
SHARD2=$PID
start "$WORK/router.log" "$FED/fed.sock" fed serve \
  --shard-socket "$WORK/shard-0/pmp.sock" \
  --shard-socket "$WORK/shard-1/pmp.sock" \
  --shard-socket "$WORK/shard-2/pmp.sock" \
  --dir "$FED" --poll-interval 0.1 \
  --rebalance-threshold 2 --rebalance-interval 0.2
ROUTER=$PID

# 1. the victim dies mid-bench; the router keeps every rid answered
bench 20000 > "$WORK/bench.txt"
grep -q 'rids verified' "$WORK/bench.txt" || fail "bench did not verify rids"
grep -q 'served by shard' "$WORK/bench.txt" || fail "no per-shard attribution"
set +e
wait "$VICTIM"
code=$?
set -e
[ "$code" -eq 42 ] || fail "victim exited $code, not the injected crash (42)"

# 2. marked down, its queued backlog re-admitted to the survivors
$PMP fed status --socket "$FED/fed.sock" > "$WORK/status-down.txt"
grep -q DOWN "$WORK/status-down.txt" || fail "the victim is not marked down"
[ "$(count mark-downs "$WORK/status-down.txt")" -ge 1 ] ||
  fail "no mark-down counted"
[ "$(count re-admitted "$WORK/status-down.txt")" -ge 1 ] ||
  fail "no queued task re-admitted"

# 3. restarted on its own state, the victim is probed back in
shard 1
SHARD1=$PID
tries=0
until $PMP fed status --socket "$FED/fed.sock" > "$WORK/status-up.txt" &&
  ! grep -q DOWN "$WORK/status-up.txt"; do
  tries=$((tries + 1))
  [ "$tries" -le 60 ] || fail "the restarted victim never came back up"
  sleep 0.5
done
[ "$(count 'audit failures' "$WORK/status-up.txt")" -eq 0 ] ||
  fail "rebalance audits failed"
bench 3000 > "$WORK/bench-recovered.txt"
grep -q 'rids verified' "$WORK/bench-recovered.txt" ||
  fail "bench after recovery did not verify rids"

printf 'shutdown\n' | $PMP client --socket "$FED/fed.sock" > /dev/null
wait "$ROUTER"
ROUTER=
for k in 0 1 2; do
  printf 'shutdown\n' | $PMP client --socket "$WORK/shard-$k/pmp.sock" > /dev/null
done
wait "$SHARD0"
wait "$SHARD1"
wait "$SHARD2"
echo "fed_failover: victim crashed (42), marked down, re-admitted $(count re-admitted "$WORK/status-down.txt") queued tasks, came back with 0 audit failures"
