#!/usr/bin/env bash
# Regenerate the output oracle in perf/expected/ from the current code:
#   out/py/<program>.out  python3's output for each pylite program, run
#                         after a three-line prelude (math, StringIO,
#                         bigint = int); json_bench and genshi_xml are
#                         pinned from this code instead (see README.md)
#   out/rk/<program>.out  rklite outputs, pinned from this code
#   paper.tsv, serve.tsv  simulated instruction counts and digests,
#                         pinned from this code
# Run from anywhere: bash perf/regen.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perf/perf.exe
perf=./_build/default/perf/perf.exe
out=perf/expected
rm -rf "$out"
mkdir -p "$out/out/py" "$out/out/rk"
"$perf" programs | while read -r lang name; do
  [ "$lang" = py ] || continue
  case "$name" in json_bench | genshi_xml) continue ;; esac
  { printf 'import math\nfrom io import StringIO\nbigint = int\n'
    "$perf" source py "$name"; } | python3 - > "$out/out/py/$name.out"
done
"$perf" pin --expected "$out"
