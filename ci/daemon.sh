# Sourced by the ci/*.sh drills, from the root of the checkout: builds
# pmp and starts daemons that a failed check never leaves behind.
#
#   start LOG SOCKET ARGS...  run `pmp ARGS...` in the background with its
#                             output appended to LOG, and return once it
#                             has bound SOCKET; its pid is then in $PID
#   fail MESSAGE...           print the message and exit 1
#
# On any exit every daemon started here is killed; on a failed one the
# drill's `on_failure` function, if it defines one, runs first.
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . ./bin/pmp.exe
PMP=./_build/default/bin/pmp.exe
PIDS=

on_failure() { :; }

trap 'status=$?
[ "$status" -eq 0 ] || on_failure
for p in $PIDS; do kill "$p" 2>/dev/null || true; done
exit "$status"' EXIT

fail() {
  echo "$(basename "$0" .sh): $*" >&2
  exit 1
}

start() {
  log=$1
  sock=$2
  shift 2
  rm -f "$sock" # a crashed daemon leaves its socket file behind
  $PMP "$@" >> "$log" 2>&1 &
  PID=$!
  PIDS="$PIDS $PID"
  tries=0
  until [ -S "$sock" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ] || ! kill -0 "$PID" 2>/dev/null; then
      cat "$log" >&2
      fail "pmp $1 did not bind $sock"
    fi
    sleep 0.1
  done
}
