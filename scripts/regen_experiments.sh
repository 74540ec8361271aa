#!/usr/bin/env bash
# Rewrites EXPERIMENTS.md's generated tables in place.
#
#   scripts/regen_experiments.sh [NAME...]   # default: every marked table
#
# Each `<!-- experiment:NAME -->` ... `<!-- /experiment -->` block is
# replaced by the output of `scalecheck_cli --mode=experiment --table=NAME`
# (rows: src/scalecheck/experiment_table.cc). BUILD_DIR (default build/)
# holds the CLI; JOBS (default 1) is the host threads per table, which moves
# no output byte. Host timings go to stderr. The default keeps memory low:
# colocation-limit probes up to N=2048 and needs about 6 GB per job (6
# minutes at JOBS=1). JOBS=3 cuts the Figure 3 rows (5 seeds up to N=256)
# to half a minute (fig3a) to 8 minutes (fig3c) on 4 cores.
# tests/experiment_table_test.cc regenerates and diffs the rows that stop at
# N <= 128 in the tier-1 suite.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-1}"
CLI="$BUILD_DIR/examples/scalecheck_cli"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target example_scalecheck_cli >/dev/null

if [[ $# -eq 0 ]]; then
  mapfile -t names < <(sed -n 's/^<!-- experiment:\(.*\) -->$/\1/p' EXPERIMENTS.md)
  set -- "${names[@]}"
fi

table="$(mktemp)"
trap 'rm -f "$table"' EXIT
for name in "$@"; do
  echo "== $name ==" >&2
  "$CLI" --mode=experiment --table="$name" --jobs="$JOBS" > "$table"
  python3 - "$name" "$table" <<'EOF'
import sys

name, table = sys.argv[1], sys.argv[2]
open_marker = f"\n<!-- experiment:{name} -->\n"
close_marker = "\n<!-- /experiment -->"
with open("EXPERIMENTS.md", encoding="utf-8") as f:
    doc = f.read()
if doc.count(open_marker) != 1:
    sys.exit(f"EXPERIMENTS.md has {doc.count(open_marker)} '{open_marker.strip()}' lines, want 1")
body = doc.index(open_marker) + len(open_marker)
end = doc.index(close_marker, body - 1)
with open(table, encoding="utf-8") as f:
    doc = doc[:body] + f.read().rstrip("\n") + doc[end:]
with open("EXPERIMENTS.md", "w", encoding="utf-8") as f:
    f.write(doc)
EOF
done
