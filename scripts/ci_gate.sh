#!/usr/bin/env bash
# The tier-1 CI gate: everything a change must pass before merge.
#
#   scripts/ci_gate.sh [build-dir]        # default build/
#
# Seven legs:
#   1. full build + ctest (the tier-1 suite). It includes the host-free
#      scaling gate (tests/scaling_gate_test.cc): deterministic counters
#      fitted as c*N^k at N=16..128 against pinned exponents, so the perf
#      regression check has no wall-clock threshold and cannot flake on a
#      loaded host; constant factors go through scripts/bench_ab.sh. It also
#      includes tests/experiment_table_test.cc, which regenerates every
#      experiment-table row whose deployments stop at N <= 128 and diffs it
#      against its marked block in EXPERIMENTS.md (scripts/
#      regen_experiments.sh rewrites the blocks),
#   2. fidelity-guard exit-code contract: scalecheck_cli must exit 3 — and
#      only 3 — when a run's verdict is invalid, so downstream automation can
#      reject untrustworthy colocation results without parsing JSON; usage
#      errors exit 2: a flag the selected mode would ignore, a value that
#      does not parse whole or lies outside its range, a search below
#      ChaosSearch's minimum cluster size, a KV flag that would act on
#      nothing, and --mode=experiment without a known --table (or --table
#      outside it, or a grid flag inside it); a --sim-modes=colo run equals
#      the full grid's colo cell,
#   3. ChaosSearch smoke: a pinned-seed bounded search must find the planted
#      left-join bug, shrink it to a <=3-event reproducer, and the emitted
#      repro artifact must replay to the identical violation (exit 4); a flag
#      the artifact pins (--nodes) next to --repro is a usage error (exit 2),
#   4. crash-durability smoke: a pinned-seed crash-restart FaultPlan under
#      QUORUM KV load with the WAL on must lose zero acked writes (exit 0);
#      then a pinned-seed search against the planted ack-before-sync bug
#      must find kv-durability, shrink to <=3 events, and the repro artifact
#      must replay to the identical violation (exit 4),
#   5. anti-entropy smoke: a pinned-seed crash-restart plan with repair on
#      must converge the diverged replicas (replica-convergence armed, exit
#      0, repair sessions actually opened); then a pinned-seed search
#      against the planted repair-storm bug must find replica-convergence,
#      shrink to <=3 events, and the repro artifact must replay to the
#      identical violation (exit 4); finally the same planted storm on the
#      REAL socket carrier must trip the session-rate budget facet (exit 4),
#   6. real-mode smoke: the same protocol code on REAL localhost TCP sockets
#      (--mode=real) must gossip an 8-node cluster to convergence under a
#      wall-clock timeout, complete a WAL-backed quorum KV smoke (group
#      commit over real sockets) whose KvService ledger reads 16 issued,
#      16 OK, 0 in flight and a non-zero p99, pass the shared invariant registry with
#      the KV checks armed and more than one probe, and exit 0,
#   7. real-mode chaos smoke: replay the islanding FaultPlan against the
#      socket carrier (--mode=real --faults=island) — the link filter must
#      actually drop frames, and after the heal the gossip-to-unreachable
#      escape hatch must reconverge the cluster (0 islanded endpoints)
#      within the partition-heal bound.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== build =="
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)"

echo "== tier-1 tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

echo "== fidelity-guard exit codes =="
CLI="$BUILD_DIR/examples/scalecheck_cli"

# A comfortable run must exit 0 with an ok verdict.
if ! "$CLI" --bug=C3831 --mode=suite --sim-modes=colo --nodes=16 --json >/dev/null; then
  echo "FAIL: healthy run did not exit 0" >&2
  exit 1
fi

# An impossible lateness budget must produce an invalid verdict and exit 3.
set +e
"$CLI" --bug=C3831 --mode=suite --sim-modes=colo --nodes=96 \
  --guard-lateness-p99-ms=1 --json \
  > /dev/null
code=$?
set -e
if [[ "$code" -ne 3 ]]; then
  echo "FAIL: invalid-verdict run exited $code, expected 3" >&2
  exit 1
fi

# Usage errors stay on their own exit code (2), distinct from verdicts.
set +e
"$CLI" --replay-policy=bogus >/dev/null 2>&1
code=$?
set -e
if [[ "$code" -ne 2 ]]; then
  echo "FAIL: usage error exited $code, expected 2" >&2
  exit 1
fi

# A flag the selected mode would ignore is a usage error too (exit 2), not a
# silent no-op: a BugSpec knob with --mode=real, a socket knob in a sim mode,
# a search knob outside search. So is a value that does not parse whole or
# lies outside its range, a search below ChaosSearch's minimum N (the
# searcher would abort on its internal CHECK instead), a KV flag that would
# act on nothing: no KV load, or a WAL/repair flag with that path off, and an
# experiment table that is missing, unknown, asked of another mode, or given
# a grid override (a row declares its own grid).
for flags in "--mode=real --kv-rate=100 --nodes=8" \
             "--mode=suite --sim-modes=colo --kv-ops=8 --nodes=8" \
             "--seed=abc" \
             "--kv-repair-rate=1e6" \
             "--mode=suite --search-budget=3" \
             "--mode=search --nodes=4" \
             "--mode=suite --sim-modes=colo --nodes=8 --kv-wal --plant-kv-bug" \
             "--mode=real --nodes=4 --kv-ops=8 --plant-kv-bug=repair-storm" \
             "--mode=experiment" \
             "--mode=experiment --table=bogus" \
             "--mode=suite --table=fig1" \
             "--mode=experiment --table=fig1 --nodes=16"; do
  set +e
  "$CLI" $flags >/dev/null 2>&1
  code=$?
  set -e
  if [[ "$code" -ne 2 ]]; then
    echo "FAIL: '$flags' exited $code, expected 2 (usage error)" >&2
    exit 1
  fi
done

echo "== one deployment per spec =="
# Every entry point builds a cell from the same BugSpec mapping, so a
# --sim-modes=colo run must equal the colo object of the full grid with the
# same flags — including the KV key distribution.
DEPLOY_FLAGS=(--bug=C3831 --nodes=16 --seed=7 --workload=steady-state
              --kv-rate=500 --kv-key-dist=zipf:1.5 --json)
subset="$("$CLI" --mode=suite --sim-modes=colo "${DEPLOY_FLAGS[@]}")"
grid="$("$CLI" --mode=suite --jobs=4 "${DEPLOY_FLAGS[@]}")"  # jobs moves no byte
if ! python3 -c '
import json, sys
subset, grid = json.loads(sys.argv[1]), json.loads(sys.argv[2])
sys.exit(0 if subset == grid["colo"] else 1)' "$subset" "$grid"; then
  echo "FAIL: --sim-modes=colo differs from the full grid's colo cell" >&2
  exit 1
fi

echo "== chaos-search smoke =="
REPRO="$BUILD_DIR/chaos_smoke_repro.json"
rm -f "$REPRO"

# A bounded pinned-seed search against the planted left-join bug must find
# the violation (exit 4), and the minimizer must shrink the schedule to at
# most 3 events.
set +e
out="$("$CLI" --bug=C3831 --mode=search --nodes=12 --plant-bug \
  --search-budget=8 --jobs=4 --json --repro-out="$REPRO")"
code=$?
set -e
if [[ "$code" -ne 4 ]]; then
  echo "FAIL: chaos search exited $code, expected 4 (violation found)" >&2
  exit 1
fi
minimized="$(sed -n 's/.*"minimized_events":\([0-9]*\).*/\1/p' <<<"$out")"
if [[ -z "$minimized" || "$minimized" -lt 1 || "$minimized" -gt 3 ]]; then
  echo "FAIL: minimized reproducer has ${minimized:-?} events, expected 1..3" >&2
  exit 1
fi

# The emitted artifact replays to the byte-identical violation, still exit 4.
set +e
"$CLI" --repro="$REPRO" >/dev/null
code=$?
set -e
if [[ "$code" -ne 4 ]]; then
  echo "FAIL: repro replay exited $code, expected 4" >&2
  exit 1
fi

# The artifact pins the scenario: a flag it would override is a usage error.
set +e
"$CLI" --repro="$REPRO" --nodes=64 >/dev/null 2>&1
code=$?
set -e
if [[ "$code" -ne 2 ]]; then
  echo "FAIL: '--repro=\$REPRO --nodes=64' exited $code, expected 2 (flag pinned by the artifact)" >&2
  exit 1
fi

echo "== crash-durability smoke =="
KV_REPRO="$BUILD_DIR/kv_durability_repro.json"
rm -f "$KV_REPRO"

# A pinned-seed crash-restart plan under QUORUM load with the WAL on: the
# kv-durability invariant audits every acked write across the crash and the
# restart, and a correct group-commit data path loses none of them (exit 0).
set +e
out="$("$CLI" --bug=C3831-fixed --workload=steady-state --mode=suite \
  --sim-modes=colo --nodes=12 --seed=7 --faults=crash-restart \
  --kv-wal --kv-consistency=quorum --kv-rate=100 --json)"
code=$?
set -e
if [[ "$code" -ne 0 ]]; then
  echo "FAIL: crash-durability clean run exited $code, expected 0" >&2
  exit 1
fi
if [[ "$out" != *'"kv_checked":true'* ]]; then
  echo "FAIL: crash-durability clean run did not arm the KV checkers" >&2
  exit 1
fi
if [[ "$out" == *'"kv_wal_bytes":0,'* ]]; then
  echo "FAIL: crash-durability clean run wrote no WAL bytes" >&2
  exit 1
fi

# The planted ack-before-sync bug: a bounded pinned-seed search must crash a
# replica inside its group-commit window and catch the lost acked write.
set +e
out="$("$CLI" --bug=C3831-fixed --workload=steady-state --mode=search \
  --nodes=12 --plant-kv-bug --kv-wal --kv-rate=100 \
  --search-budget=8 --jobs=4 --json --repro-out="$KV_REPRO")"
code=$?
set -e
if [[ "$code" -ne 4 ]]; then
  echo "FAIL: kv-durability search exited $code, expected 4" >&2
  exit 1
fi
if [[ "$out" != *'"kv-durability"'* ]]; then
  echo "FAIL: kv-durability search violated something else" >&2
  exit 1
fi
minimized="$(sed -n 's/.*"minimized_events":\([0-9]*\).*/\1/p' <<<"$out")"
if [[ -z "$minimized" || "$minimized" -lt 1 || "$minimized" -gt 3 ]]; then
  echo "FAIL: kv-durability reproducer has ${minimized:-?} events, expected 1..3" >&2
  exit 1
fi

# The artifact replays to the byte-identical kv-durability violation.
set +e
"$CLI" --repro="$KV_REPRO" >/dev/null
code=$?
set -e
if [[ "$code" -ne 4 ]]; then
  echo "FAIL: kv-durability repro replay exited $code, expected 4" >&2
  exit 1
fi

echo "== anti-entropy smoke =="
AE_REPRO="$BUILD_DIR/anti_entropy_repro.json"
rm -f "$AE_REPRO"

# Throttled repair under a pinned-seed crash-restart plan: the restarted
# replica misses acked writes, anti-entropy streams the Merkle diff back,
# and the replica-convergence invariant (armed by --kv-repair) holds.
set +e
out="$("$CLI" --bug=C3831-fixed --workload=steady-state --mode=suite \
  --sim-modes=colo --nodes=12 --seed=7 --faults=crash-restart \
  --kv-wal --kv-consistency=quorum --kv-rate=100 --kv-repair --json)"
code=$?
set -e
if [[ "$code" -ne 0 ]]; then
  echo "FAIL: throttled anti-entropy run exited $code, expected 0" >&2
  exit 1
fi
if [[ "$out" != *'"kv_checked":true'* ]]; then
  echo "FAIL: throttled anti-entropy run did not arm the KV checkers" >&2
  exit 1
fi
if [[ "$out" == *'"kv_repair_sessions":0,'* ]]; then
  echo "FAIL: throttled anti-entropy run opened no repair sessions" >&2
  exit 1
fi

# The planted repair storm: the scheduler ignores its rate limit, session
# cap, and pressure yield; a bounded pinned-seed search must catch the
# replica-convergence budget facet and shrink the schedule.
set +e
out="$("$CLI" --bug=C5456 --mode=search --nodes=12 --seed=7 \
  --workload=steady-state --kv-rate=200 --kv-wal --kv-repair \
  --kv-repair-rate=4096 --plant-kv-bug=repair-storm \
  --search-budget=8 --jobs=4 --json --repro-out="$AE_REPRO")"
code=$?
set -e
if [[ "$code" -ne 4 ]]; then
  echo "FAIL: repair-storm search exited $code, expected 4" >&2
  exit 1
fi
if [[ "$out" != *'"replica-convergence"'* ]]; then
  echo "FAIL: repair-storm search violated something else" >&2
  exit 1
fi
# The storm is a planted code bug, not a fault-schedule bug: ddmin
# typically shrinks the reproducer all the way to ZERO fault events — the
# unthrottled scheduler floods on a perfectly healthy cluster.
minimized="$(sed -n 's/.*"minimized_events":\([0-9]*\).*/\1/p' <<<"$out")"
if [[ -z "$minimized" || "$minimized" -gt 3 ]]; then
  echo "FAIL: repair-storm reproducer has ${minimized:-?} events, expected 0..3" >&2
  exit 1
fi

# The artifact replays to the byte-identical replica-convergence violation.
set +e
"$CLI" --repro="$AE_REPRO" >/dev/null
code=$?
set -e
if [[ "$code" -ne 4 ]]; then
  echo "FAIL: repair-storm repro replay exited $code, expected 4" >&2
  exit 1
fi

# The same planted storm on real localhost sockets: the session-rate budget
# facet must flag it (exit 4) — the throttled scheduler opens at most
# max_sessions per interval, the storm one per co-replica per tick.
set +e
out="$(timeout 90 "$CLI" --mode=real --nodes=5 --kv-ops=40 --gossip-ms=50 \
  --kv-repair --plant-kv-bug=repair-storm --json)"
code=$?
set -e
if [[ "$code" -ne 4 ]]; then
  echo "FAIL: real-mode repair-storm smoke exited $code, expected 4" >&2
  exit 1
fi
if [[ "$out" != *'"replica-convergence"'* ]]; then
  echo "FAIL: real-mode repair-storm smoke flagged no replica-convergence" >&2
  exit 1
fi

echo "== real-mode smoke =="
# 8 nodes on real localhost sockets must converge well inside 30s (typical:
# well under a second) and exit 0; `timeout` guards the gate against a hang
# in the threaded carrier. A non-converged run exits 1, a hang exits 124 —
# either fails the gate. The KV smoke rides the WAL: 8 quorum writes whose
# acks defer to the group commit on real sockets, then 8 quorum reads.
set +e
out="$(timeout 60 "$CLI" --mode=real --nodes=8 --kv-ops=8 --kv-wal \
  --kv-consistency=quorum --json)"
code=$?
set -e
if [[ "$code" -ne 0 ]]; then
  echo "FAIL: real-mode smoke exited $code, expected 0" >&2
  exit 1
fi
if [[ "$out" != *'"settled":true'* || "$out" != *'"mode":"RealNet"'* ]]; then
  echo "FAIL: real-mode smoke JSON lacks settled:true / mode:RealNet" >&2
  exit 1
fi
if [[ "$out" != *'"kv_ok":16,'* ]]; then
  echo "FAIL: real-mode WAL-backed KV smoke did not complete 16/16 ops" >&2
  exit 1
fi
# The run's KV ledger comes from the coordinators' KvService counters on both
# carriers: every request issued is counted there, none is left in flight,
# and the OK latencies reach the merged percentiles.
if [[ "$out" != *'"kv_issued":16,'* || "$out" != *'"kv_inflight_at_stop":0,'* ]]; then
  echo "FAIL: real-mode KV smoke ledger does not read 16 issued, 0 in flight" >&2
  exit 1
fi
if [[ "$out" != *'"kv_latency_p99_ns":'[1-9]* ]]; then
  echo "FAIL: real-mode KV smoke reports no OK latency" >&2
  exit 1
fi
if [[ "$out" == *'"kv_wal_bytes":0,'* ]]; then
  echo "FAIL: real-mode KV smoke wrote no WAL bytes (WAL not wired?)" >&2
  exit 1
fi
# The shared invariant registry judges the socket run: probed from boot on,
# with the client history recorded, so the KV checks arm.
if [[ "$out" != *'"kv_checked":true'* ]]; then
  echo "FAIL: real-mode KV smoke did not arm the KV checkers" >&2
  exit 1
fi
probes="$(sed -n 's/.*"invariants":{"checked":true,"probes":\([0-9]*\).*/\1/p' <<<"$out")"
if [[ -z "$probes" || "$probes" -le 1 ]]; then
  echo "FAIL: real-mode KV smoke probed its invariants ${probes:-0} times, expected > 1" >&2
  exit 1
fi

echo "== real-mode chaos smoke =="
# The same islanding plan ChaosSearch found in the simulator, replayed on
# real sockets: drop all links to one node long enough for conviction, heal,
# and demand reconvergence. Exit 0 means the partition-heals probe passed;
# a cluster that stays split exits 4 (invariant violation), a hang exits 124.
set +e
out="$(timeout 90 "$CLI" --mode=real --nodes=8 --faults=island --json)"
code=$?
set -e
if [[ "$code" -ne 0 ]]; then
  echo "FAIL: real-mode chaos smoke exited $code, expected 0" >&2
  exit 1
fi
if [[ "$out" != *'"fault_events_applied":1'* ]]; then
  echo "FAIL: real-mode chaos smoke did not apply the partition" >&2
  exit 1
fi
if [[ "$out" == *'"messages_blocked":0,'* ]]; then
  echo "FAIL: real-mode chaos smoke blocked no frames (filter not wired?)" >&2
  exit 1
fi
if [[ "$out" != *'"unreachable_endpoints":0,'* ]]; then
  echo "FAIL: real-mode chaos smoke left endpoints unreachable" >&2
  exit 1
fi

# The retired mode aliases are usage errors now (exit 2), not silent runs.
set +e
"$CLI" --bug=C3831 --mode=colo --nodes=16 --json >/dev/null 2>&1
code=$?
set -e
if [[ "$code" -ne 2 ]]; then
  echo "FAIL: retired --mode=colo alias exited $code, expected 2" >&2
  exit 1
fi

echo "OK: build, tier-1 tests (with the scaling gate), guard exit codes, one deployment per spec, chaos-search, crash-durability, anti-entropy and real-mode smokes all pass"
