#!/bin/sh
# Build pmp and the benchmark from this checkout, then run the
# benchmark with the given arguments, e.g.
#   sh bench/e2e/run.sh --workload churn-write --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last line of stdout is the result.
set -e
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -f bin/pmp.ml ]; then
  echo "pmpbench: not a pmp checkout (no dune-project or bin/pmp.ml here)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./bin/pmp.exe ./bench/e2e/pmpbench.exe >&2
exec ./_build/default/bench/e2e/pmpbench.exe --pmp ./_build/default/bin/pmp.exe "$@"
