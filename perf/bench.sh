#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds perf.exe from source (dune,
# into _build/ of this checkout) and runs `perf.exe bench` with the
# arguments given, e.g.
#   bash perf/bench.sh --workload paper-jit --seed 42 --seconds 25 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -eu
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perf/perf.exe >&2 || exit 1
exec ./_build/default/perf/perf.exe bench "$@"
