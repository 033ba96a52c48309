#!/bin/sh
# Crash a pmpd mid-stream, restart it on the same state directory, and
# diff its stats against a reference daemon fed only the durable prefix.
#
#   sh ci/crash_recover.sh DOMAINS PROTO SNAPSHOT_EVERY [WORKDIR]
#
# DOMAINS is the shard count (--domains), PROTO the client protocol
# (json | binary), SNAPSHOT_EVERY the daemon's --snapshot-every. State
# directories and transcripts go to WORKDIR (default
# crash-recover/k<DOMAINS>-<PROTO>), replaced on every run. Run from
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
usage="usage: sh ci/crash_recover.sh DOMAINS json|binary SNAPSHOT_EVERY [WORKDIR]"
K=${1:?$usage}
PROTO=${2:?$usage}
SNAP=${3:?$usage}
case $PROTO in
  json | binary) ;;
  *) echo "$usage" >&2; exit 2 ;;
esac
cd "$(dirname "$0")/.."
WORK=${4:-crash-recover/k$K-$PROTO}
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . ./bin/pmp.exe
PMP=./_build/default/bin/pmp.exe
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

# a failed check must not leave a daemon behind
SERVER=
trap '[ -z "$SERVER" ] || kill "$SERVER" 2>/dev/null' EXIT

# serve NAME [FLAGS...]: start a daemon on $WORK/NAME in the background
# and wait until its socket is bound (recovery runs before the bind)
serve() {
  dir=$WORK/$1
  shift
  rm -f "$dir/pmp.sock" # a crashed victim leaves its socket file behind
  $PMP serve -m 128 -a am -d 2 --domains="$K" --fsync-policy=group \
    --wal-format=binary --snapshot-every "$SNAP" \
    --dir "$dir" --socket "$dir/pmp.sock" "$@" >> "$dir.log" 2>&1 &
  SERVER=$!
  tries=0
  until [ -S "$dir/pmp.sock" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ] || ! kill -0 "$SERVER" 2>/dev/null; then
      echo "crash_recover: daemon on $dir did not come up" >&2
      cat "$dir.log" >&2
      exit 1
    fi
    sleep 0.1
  done
}

client() {
  $PMP client --proto="$PROTO" --socket "$WORK/$1/pmp.sock"
}

# 1. the victim: crash injection after mutation 7
serve victim --crash-after 7
printf '%s\n' "$SCRIPT" | client victim > "$WORK/victim.out" 2>&1 || true
set +e
wait "$SERVER"
code=$?
set -e
SERVER=
if [ "$code" -ne 42 ]; then
  echo "crash_recover: victim exited $code, not the injected crash (42)" >&2
  exit 1
fi

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
wait "$SERVER"
SERVER=
replayed=$(sed -n 's/.* recovered_ops=\([0-9][0-9]*\).*/\1/p' "$WORK/recovered.txt")
if [ -z "$replayed" ] || [ "$replayed" -ge $((K * SNAP)) ]; then
  echo "crash_recover: recovery replayed '$replayed' WAL records, not fewer than $((K * SNAP))" >&2
  exit 1
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
    echo "crash_recover: $d holds $snaps snapshots and $tmps *.tmp files" >&2
    exit 1
  fi
done

# 4. the reference: fed exactly the durable prefix, never crashed
serve reference
printf '%s\n' "$SCRIPT" | head -n 7 | client reference > /dev/null
printf 'stats\nshutdown\n' | client reference > "$WORK/reference.txt"
wait "$SERVER"
SERVER=

grep '^submitted=' "$WORK/recovered.txt" > "$WORK/recovered-stats.txt"
grep '^submitted=' "$WORK/reference.txt" > "$WORK/reference-stats.txt"
diff -u "$WORK/reference-stats.txt" "$WORK/recovered-stats.txt"
echo "crash_recover: K=$K $PROTO snapshot-every $SNAP: recovered = reference ($replayed WAL records replayed)"
