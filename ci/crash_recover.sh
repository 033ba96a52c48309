#!/bin/sh
# Crash a pmpd mid-stream, restart it on the same state directory, and
# diff its stats against a reference daemon fed only the durable prefix.
#
#   sh ci/crash_recover.sh DOMAINS SNAPSHOT_EVERY [WORKDIR]
#
# DOMAINS is the shard count (--domains), SNAPSHOT_EVERY the daemon's
# --snapshot-every. State directories and transcripts go to WORKDIR
# (default crash-recover/k<DOMAINS>), replaced on every run. Run from
# anywhere; it builds pmp from this checkout and exits nonzero on the
# first failed check.
#
# The victim dies by crash injection right after its 7th mutation is
# durable (exit 42, that ack abandoned). Its restart must pass the
# recovery audit, leave a well-formed flight-recorder dump in every
# state directory, and report the stats of a daemon that was fed just
# those 7 mutations and never crashed. Recovery must also be bounded:
# it replays fewer than DOMAINS x SNAPSHOT_EVERY WAL records, and each
# state directory holds at most one snapshot and no *.tmp.
set -eu
usage="usage: sh ci/crash_recover.sh DOMAINS SNAPSHOT_EVERY [WORKDIR]"
K=${1:?$usage}
SNAP=${2:?$usage}
cd "$(dirname "$0")/.."
WORK=${3:-crash-recover/k$K}
. ci/daemon.sh
rm -rf "$WORK"
mkdir -p "$WORK"

# One connection lives on shard 0, whose n-th task is n*K (n at K=1):
# "finish $K" and "finish 0" name the second and first submit at any K.
SCRIPT="submit 8
submit 16
submit 8
finish $K
submit 4
submit 32
finish 0
submit 2
submit 2
submit 64"

# serve NAME [FLAGS...]: start a daemon on $WORK/NAME in the background
# and wait until its socket is bound (recovery runs before the bind)
serve() {
  dir=$WORK/$1
  shift
  start "$dir.log" "$dir/pmp.sock" serve -m 128 -a am -d 2 --domains="$K" \
    --fsync-policy=group --snapshot-every "$SNAP" \
    --dir "$dir" --socket "$dir/pmp.sock" "$@"
}

client() {
  $PMP client --socket "$WORK/$1/pmp.sock"
}

# 1. the victim: crash injection after mutation 7
serve victim --crash-after 7
printf '%s\n' "$SCRIPT" | client victim > "$WORK/victim.out" 2>&1 || true
set +e
wait "$PID"
code=$?
set -e
[ "$code" -eq 42 ] || fail "victim exited $code, not the injected crash (42)"

# 2. every state directory keeps a well-formed black box
if [ "$K" -gt 1 ]; then
  dumps=$(ls "$WORK"/victim/shard-*/flightrec.jsonl)
else
  dumps=$WORK/victim/flightrec.jsonl
  test -s "$dumps"
fi
[ "$(echo "$dumps" | wc -w)" -eq "$K" ]
# shellcheck disable=SC2086
python3 -c 'import json, sys
for path in sys.argv[1:]:
    [json.loads(line) for line in open(path)]' $dumps

# 3. restart on the same directory: recovery must succeed, bounded
serve victim
printf 'health\nstats\nshutdown\n' | client victim > "$WORK/recovered.txt"
wait "$PID"
replayed=$(sed -n 's/.* recovered_ops=\([0-9][0-9]*\).*/\1/p' "$WORK/recovered.txt")
if [ -z "$replayed" ] || [ "$replayed" -ge $((K * SNAP)) ]; then
  fail "recovery replayed '$replayed' WAL records, not fewer than $((K * SNAP))"
fi
if [ "$K" -gt 1 ]; then
  states=$(ls -d "$WORK"/victim/shard-*)
else
  states=$WORK/victim
fi
for d in $states; do
  snaps=$(find "$d" -maxdepth 1 -name 'snapshot-*' ! -name '*.tmp' | wc -l)
  tmps=$(find "$d" -maxdepth 1 -name '*.tmp' | wc -l)
  if [ "$snaps" -gt 1 ] || [ "$tmps" -gt 0 ]; then
    fail "$d holds $snaps snapshots and $tmps *.tmp files"
  fi
done

# 4. the reference: fed exactly the durable prefix, never crashed
serve reference
printf '%s\n' "$SCRIPT" | head -n 7 | client reference > /dev/null
printf 'stats\nshutdown\n' | client reference > "$WORK/reference.txt"
wait "$PID"

grep '^submitted=' "$WORK/recovered.txt" > "$WORK/recovered-stats.txt"
grep '^submitted=' "$WORK/reference.txt" > "$WORK/reference-stats.txt"
diff -u "$WORK/reference-stats.txt" "$WORK/recovered-stats.txt"
echo "crash_recover: K=$K snapshot-every $SNAP: recovered = reference ($replayed WAL records replayed)"
