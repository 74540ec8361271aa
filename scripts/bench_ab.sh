#!/usr/bin/env bash
# Same-host A/B of the scale-check benchmark binary: a reference revision
# against the working tree, interleaved on one seed.
#
#   scripts/bench_ab.sh REF WORKLOAD [PAIRS]
#   scripts/bench_ab.sh HEAD~1 kv-durable-n64 12
#
# REF is any git revision. Its tree is exported with `git archive REF | tar
# -x` into a temporary directory and its `scalebench` built there; the
# working tree's `scalebench` is built in .bench_build/. Both builds are
# scalebench/run.py's own. WORKLOAD is a workload of scalebench/run.py, run
# on its canonical seed from there. PAIRS (default 10, at least 10) pairs of
# runs alternate which side goes first, so host drift hits both sides alike.
# Fewer pairs cannot resolve a 10% wall change on a shared 4-core host: five
# pairs once read kv-durable-n64 at x1.122 and ten pairs x0.966, on the same
# two trees.
#
# Prints each pair's wall and CPU seconds, peak RSS and set-up seconds (the
# median of a run's repeated deployment builds), then the median working/REF
# ratio of each with the spread of the per-pair ratios (min, quartiles, max),
# and any scalebench output check that failed. Both sides share run.py's
# reference kernel, so the wall ratio is the ratio of the two `wall_ratio`s.
# Exit 0 when every run's deterministic `counts` equal REF's, 1 when they
# differ or a run fails, 2 on bad arguments. Offline: nothing is fetched.
set -euo pipefail

usage() {
  echo "usage: $0 REF WORKLOAD [PAIRS]   (PAIRS >= 10, default 10)" >&2
  exit 2
}
[[ $# -ge 2 && $# -le 3 ]] || usage
REF="$1"
WORKLOAD="$2"
PAIRS="${3:-10}"
[[ "$PAIRS" =~ ^[0-9]+$ && "$PAIRS" -ge 10 ]] || usage

cd "$(dirname "$0")/.."
ROOT="$(pwd)"

# run_py SCALEBENCH_DIR CODE [ARG...]: runs CODE with that directory's
# run.py imported as `run`; the ARGs are sys.argv[2:].
run_py() {
  python3 -B -c "import sys; sys.path.insert(0, sys.argv[1]); import run; $2" "$1" "${@:3}"
}
SEED="$(run_py "$ROOT/scalebench" 'print(run.WORKLOADS[sys.argv[2]]["canonical"])' \
  "$WORKLOAD" 2>/dev/null)" || {
  echo "$0: unknown workload '$WORKLOAD'" >&2
  usage
}
REF_SHA="$(git rev-parse --verify --quiet "$REF^{commit}")" || {
  echo "$0: not a revision: $REF" >&2
  exit 2
}

TMP="$(mktemp -d)"
REF_TREE="$TMP/ref"
trap 'rm -rf "$TMP"' EXIT

build() {  # build SOURCE_ROOT: scalebench/run.py's build, into SOURCE_ROOT/.bench_build
  run_py "$1/scalebench" 'run.build()' 2>"$TMP/build.log" || {
    tail -n 30 "$TMP/build.log" >&2
    echo "$0: build of $1 failed" >&2
    exit 1
  }
}

echo "building $REF ($REF_SHA) and the working tree ..." >&2
mkdir "$REF_TREE"
git archive "$REF_SHA" | tar -x -C "$REF_TREE"
build "$REF_TREE"
build "$ROOT"
REF_BIN="$REF_TREE/.bench_build/scalebench"
CUR_BIN="$ROOT/.bench_build/scalebench"

ARGS=(--workload "$WORKLOAD" --seed "$SEED")

run() {  # run BINARY OUT_JSON
  local code=0
  "$1" "${ARGS[@]}" 2>/dev/null | tail -n 1 >"$2" || code=$?
  if [[ $code -ne 0 && $code -ne 3 ]]; then
    echo "$0: $1 exited $code" >&2
    exit 1
  fi
}

for ((i = 1; i <= PAIRS; i++)); do
  if ((i % 2 == 1)); then
    run "$REF_BIN" "$TMP/ref_$i.json"
    run "$CUR_BIN" "$TMP/cur_$i.json"
  else
    run "$CUR_BIN" "$TMP/cur_$i.json"
    run "$REF_BIN" "$TMP/ref_$i.json"
  fi
  echo "pair $i/$PAIRS done" >&2
done

python3 - "$TMP" "$PAIRS" "$REF" "$WORKLOAD" "$SEED" <<'EOF'
import json
import statistics
import sys

tmp, pairs, ref, workload, seed = sys.argv[1], int(sys.argv[2]), *sys.argv[3:]
load = lambda side, i: json.load(open(f"{tmp}/{side}_{i}.json"))
runs = [(load("ref", i), load("cur", i)) for i in range(1, pairs + 1)]
METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")


def value(run, metric):  # setup_s is one reading per deployment build
    v = run[metric]
    return statistics.median(v) if isinstance(v, list) else v


def spread(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return (f"median {statistics.median(values):.3f}  "
            f"[min {min(values):.3f}, q1 {q[0]:.3f}, q3 {q[2]:.3f}, max {max(values):.3f}]")


print(f"workload {workload}  seed {seed}  ref {ref}  pairs {pairs}")
print("pair " + " ".join(f"{side + ' ' + m:>15}" for m in METRICS for side in ("ref", "cur")))
for i, (r, c) in enumerate(runs, 1):
    print(f"{i:>4} " + " ".join(f"{value(run, m):>15.4f}" for m in METRICS for run in (r, c)))
for metric in METRICS:
    print(f"{metric} ratio cur/ref: " +
          spread([value(c, metric) / value(r, metric) for r, c in runs]))

for side, k in (("ref", 0), ("cur", 1)):
    failed = [i for i, pair in enumerate(runs, 1) if pair[k]["check_failures"]]
    if failed:
        print(f"{side}: output checks failed in pairs {failed}: "
              f"{runs[failed[0] - 1][k]['check_failures'][0]}")

want = runs[0][0]["counts"]
bad = [(side, i) for i, (r, c) in enumerate(runs, 1)
       for side, run in (("ref", r), ("cur", c)) if run["counts"] != want]
if bad:
    diff = sorted(k for k in set(want) | set(runs[0][1]["counts"])
                  if want.get(k) != runs[0][1]["counts"].get(k))
    print(f"deterministic counts DIFFER in {bad}; first keys: {diff[:8]}")
    sys.exit(1)
print(f"deterministic counts identical ({len(want)} keys, {2 * pairs} runs)")
EOF
