#!/bin/sh
# `health` reports ready only on a daemon whose recovery proved itself,
# and a WAL that contradicts its own acknowledgements refuses to serve.
#
#   sh ci/readiness.sh [WORKDIR]
#
# A fresh daemon answers `ready ... recovered_ops=0` after three
# mutations; restarted on the same state directory it replays its WAL
# and reports recovered_ops > 0. A record that contradicts an
# acknowledged id is then appended to the WAL: `pmp serve` must refuse
# to start, leaving a flight-recorder dump whose last entry is the
# failed start and which holds the failed replay. State and transcripts
# go to WORKDIR (default readiness), replaced on every run.
set -eu
cd "$(dirname "$0")/.."
WORK=${1:-readiness}
. ci/daemon.sh
rm -rf "$WORK"
mkdir -p "$WORK"
STATE=$WORK/state

serve() {
  start "$WORK/serve.log" "$STATE/pmp.sock" serve -m 64 -a greedy \
    --dir "$STATE" --socket "$STATE/pmp.sock"
}

client() {
  $PMP client --socket "$STATE/pmp.sock"
}

# 1. fresh: ready, nothing replayed
serve
printf 'submit 8\nsubmit 4\nfinish 0\nhealth\nshutdown\n' | client \
  > "$WORK/health-fresh.txt"
wait "$PID"
grep -q '^ready .*recovered_ops=0' "$WORK/health-fresh.txt" ||
  fail "a fresh daemon must be ready with nothing replayed"

# 2. restarted: ready again, reporting the WAL tail it replayed
serve
printf 'health\nshutdown\n' | client > "$WORK/health-recovered.txt"
wait "$PID"
grep -Eq '^ready .*recovered_ops=[1-9]' "$WORK/health-recovered.txt" ||
  fail "a restarted daemon must be ready and report its replayed records"

# 3. a WAL contradicting the acknowledged ids: no ready, no socket. The
# record is a submit (tag 1) of size 8 at seq 4 claiming id 999: magic
# 0xA7, version 1, payload length 5, tag 1, then varints 4, 999, 8.
printf '\247\001\005\001\004\347\007\010' >> "$STATE/wal.log"
if $PMP serve -m 64 -a greedy --dir "$STATE" --socket "$STATE/pmp.sock" \
  >> "$WORK/serve.log" 2>&1; then
  fail "a poisoned WAL must refuse to serve"
fi
test -s "$STATE/flightrec.jsonl" ||
  fail "the refusal left no flight-recorder dump"
python3 - "$STATE/flightrec.jsonl" <<'PY'
import json, sys
entries = [json.loads(l) for l in open(sys.argv[1])]
assert entries, "refusal left an empty flight-recorder dump"
assert entries[-1]["kind"] == "event" and not entries[-1]["ok"], entries[-1]
assert any(e["kind"] == "replay" and not e["ok"] for e in entries), entries
print(f"readiness: refusal recorded, {len(entries)} entries; tail: {entries[-1]}")
PY
