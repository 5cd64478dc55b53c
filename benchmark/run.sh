#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# given arguments, e.g.
#   bash benchmark/run.sh --workload icc0-wan-kv --seed 1 --seconds 16 --trace 0
# Build output goes to stderr, so the benchmark's JSON line stays the last
# line of stdout.  Must be started from the root of the checkout.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f benchmark/dune ]; then
  echo "benchmark/run.sh: start it from the root of a source checkout" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env --readonly 2>/dev/null)" || true
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "benchmark/run.sh: dune is not on PATH" >&2
  exit 2
fi

# Keep every build artefact inside the checkout: no shared dune cache, and
# the compilers' temporary files under _build.
export DUNE_CACHE=disabled
export TMPDIR="$PWD/_build/tmp"
mkdir -p "$TMPDIR"
dune build --root . --profile release benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
