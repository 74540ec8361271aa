#!/usr/bin/env bash
# Vets the host-parallel ExperimentSuite executor and the fault-injection
# subsystem under sanitizers: builds the tree with SCALECHECK_SANITIZE and
# runs the concurrency tests (the suite grid at jobs=4, the raw ThreadPool,
# the shared CalcOutputCache hammering) plus the faults tests (crash/restart
# lifecycle, injector scheduling, jobs>1 determinism under chaos) and a
# profiled gossip deployment.
#
#   scripts/check_thread_safety.sh [build-dir]       # default build-tsan/
#   SCALECHECK_SANITIZE=address scripts/check_thread_safety.sh build-asan
#
# CI runs both legs: TSan for races in the parallel executor, ASan for
# lifetime bugs in the crash/restart path (a restarted node re-allocates its
# runtime state; ASan proves nothing dangles across the Crash/Restart seam).
set -euo pipefail

cd "$(dirname "$0")/.."
SANITIZER="${SCALECHECK_SANITIZE:-thread}"
BUILD_DIR="${1:-build-${SANITIZER:0:1}san}"

# scalecheck_selfheal_test exercises the watchdog/retry/quarantine path with
# jobs=4 (aborted Simulator::Run + MemoStore snapshot restore across worker
# threads); sim_fidelity_guard_test and pil_replay_policy_test cover the guard
# probes and the strict-abort seam those retries depend on;
# faults_search_test drives the ChaosSearch executor (per-generation suite
# grids at jobs=4, including the jobs=1-vs-4 byte-identity check);
# transport_conformance_test and real_cluster_test exercise the threaded
# TcpTransport/RealClock carrier (socket reader threads, the timer thread,
# and the per-node monitor) — TSan over those is the race gate for src/net;
# net_link_filter_test hammers the TcpTransport link-filter handoff
# (concurrent SetLinkFilter/SeverConnsTo against sending threads — the
# real-carrier fault-injection path); cluster_protocol_node_test drives the
# shared ProtocolNode's restart reset, which the ASan leg checks leaves
# nothing dangling; gossip_incremental_test runs a profiled N=128 deployment
# and demands byte-identical RunResult JSON from an unprofiled one through
# the pooled/incremental hot paths, so lifetime bugs in payload recycling or
# the event-slot slab surface under the sanitizer; sim_thread_expiry_test and
# sim_golden_test cover SimThread releasing an expired queued job's closures
# at enqueue (its shedding golden drops ~11k gossip jobs), so the ASan leg
# shows that no step of a released job is ever called; kv_durability_test
# crashes and restarts replicas with the WAL on and kv_cluster_test crashes
# one under quorum load, so the ASan leg covers KvService's OnCrash/OnRestart
# path reading the KvConfig its Deps now carry (AntiEntropy reads the same
# Deps by reference, which must outlive every timer it arms);
# sim_payload_pool_test releases payloads after their pool is destroyed, as
# a cluster's teardown does with the payloads still queued in its simulator,
# so the ASan leg shows the recycler frees them without touching freed state;
# sim_job_alloc_test runs 20k gossip-shaped jobs through recycled step blocks,
# which the ASan build poisons while they sit on the free list, so a step used
# after its block was recycled is reported, and sim_cpu_model_test replays
# seeded scripts through the CPU model's reused burst slots. Every worker
# thread of the jobs=4 suite tests above keeps its own step-block free list,
# which the TSan leg checks is never shared. gossip_failure_detector_test
# forgets, re-reports and move-assigns detectors over live phi windows, whose
# chunks the ASan build poisons on the pool's free list, so a slot read after
# its chunk was recycled (or a window touching a destroyed pool) is reported.
# kv_alloc_test drives the pooled KV requests and acks through SimStage and
# tears its deployment down with payloads still queued after their pools are
# gone, so the ASan leg shows those payloads are freed without touching
# freed pool state; the TSan leg's real_cluster_test covers the RealStage
# side of the same Stage seam.
TARGETS=(scalecheck_suite_test common_thread_pool_test
         faults_test faults_determinism_test sim_sync_crash_test
         scalecheck_selfheal_test sim_fidelity_guard_test
         pil_replay_policy_test pil_memo_corruption_test
         faults_search_test
         transport_conformance_test real_cluster_test
         net_link_filter_test cluster_protocol_node_test
         kv_merkle_test kv_repair_test gossip_incremental_test
         sim_thread_expiry_test sim_golden_test
         kv_durability_test kv_cluster_test sim_payload_pool_test
         sim_job_alloc_test sim_cpu_model_test
         gossip_failure_detector_test kv_alloc_test)

cmake -B "$BUILD_DIR" -S . -DSCALECHECK_SANITIZE="$SANITIZER" >/dev/null
cmake --build "$BUILD_DIR" --target "${TARGETS[@]}" -j"$(nproc)"

for t in "${TARGETS[@]}"; do
  echo "== $t ($SANITIZER) =="
  "$BUILD_DIR/tests/$t"
done

echo "OK: parallel executor, fault injection, and the profiled gossip run are clean under ${SANITIZER} sanitizer"
