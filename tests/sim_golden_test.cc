// Golden byte-identity test for the substrate seam.
//
// These JSON blobs were captured from scalecheck_cli:
//
//   scalecheck_cli --bug=C3831 --mode=suite --sim-modes=colo --nodes=24 --seed=7 --json
//   scalecheck_cli --bug=C5456 --mode=suite --sim-modes=colo --nodes=16 --seed=7
//                  --faults=standard-chaos --json
//   scalecheck_cli --bug=C3831 --mode=suite --sim-modes=colo --nodes=128 --seed=7 --json
//
// The seam (the Simulator as the Clock, SimTransport/SimStage forwarding to
// NetworkModel/SimThread) must not perturb one byte of the result: same event order,
// same RNG draws, same message ids, same settle time, same JSON. If this
// test fails the seam leaked into simulation semantics — fix the seam, do
// NOT re-pin the golden unless the change is an intentional,
// result-affecting feature.
//
// Re-pinned with the gossip-to-unreachable escape hatch: RunResult gained
// live_endpoints/unreachable_endpoints, and runs whose failure detector
// convicts anybody now consume extra Bernoulli draws (unreachable-SYN
// lottery), shifting float-valued work stats on fault runs. Fault-free
// runs (C3831) changed ONLY by the two new JSON fields — the escape hatch
// is RNG-silent when the unreachable set is empty, and that property is
// part of what this golden pins.
//
// Re-pinned with the N=2048 memory-layout overhaul: each node's gossip
// digest scratch moved into a per-node Arena whose growth is charged to
// MemoryModel under the "gossip-arena" tag, so peak_memory_bytes rose by
// exactly nodes * 4096 (one initial arena block per node: +98304 at N=24,
// +81920 at N=20). Every other field — events_executed, messages_sent,
// lateness, flaps, CPU stats — is byte-identical, which is the point:
// the SoA endpoint store, ring-buffer failure detector, and delta digest
// codec must not perturb simulation semantics, only the memory ledger.
//
// Re-pinned with the durable KV data path (WAL + hinted handoff + read
// repair + tunable consistency): RunResult gained eight kv_* counters
// (kv_wal_bytes, hint queue activity, read repairs, per-consistency-level
// op counts), all zero here because these runs carry no KV load. Every
// pre-existing field is byte-identical — the durability machinery is
// schedule- and RNG-silent when kv.enabled is off, and that silence is now
// part of what this golden pins.
//
// Re-pinned with anti-entropy repair (Merkle trees + overload-safe
// scheduling): RunResult gained kv_latency_p50_ns/kv_latency_p999_ns and
// four kv_repair_* counters (sessions, bytes_streamed, keys_fixed,
// aborted), all zero here because these runs carry neither KV load nor
// --kv-repair. Every pre-existing field is byte-identical — with repair
// off no AntiEntropy instance is constructed, no timer is scheduled, and
// the replica-convergence invariant disarms itself, so the subsystem is
// schedule- and RNG-silent. That silence is now part of what this golden
// pins.
//
// Re-pinned with the §5 order log deleted: RunResult lost the replay
// drift's order-context string and the two order-enforcement counters, so
// each blob changed ONLY by deleting those three fields, all empty or zero
// here (68 escaped characters). The per-(pair, type) send counter that fed
// the log drew no randomness, scheduled nothing and counted no bytes, so
// every other field is byte-identical.

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/scale_check.h"

namespace scalecheck {
namespace {

// The Colo deployment every entry point builds from a spec (no memo store,
// no trace).
RunResult RunPinned(const BugSpec& spec, int nodes, uint64_t seed) {
  return Cluster(spec.MakeClusterOptions(nodes, RunMode::kColocated, seed)).Run();
}

constexpr char kGoldenC3831[] =
    "{\"mode\":\"Colo\",\"num_nodes\":24,\"vnodes_per_node\":1,\"flaps\":0,\"flapped_pairs"
    "\":0,\"live_endpoints\":529,\"unreachable_endpoints\":0,\"test_duration_ns\":15500000"
    "0000,\"settle_time_ns\":115000000000,\"settled\":true,\"max_cpu_utilization\":0.00653"
    "24097451612906,\"peak_memory_bytes\":1794345984,\"oom\":false,\"crashed_nodes\":0,\"r"
    "estarted_nodes\":0,\"fault_events_applied\":0,\"fault_events_healed\":0,\"messages_bl"
    "ocked\":0,\"lateness_p99_ns\":100000,\"lateness_max_ns\":11091992,\"lateness_early_co"
    "unt\":0,\"fidelity\":{\"verdict\":\"ok\",\"violated_budget\":\"\",\"first_violation_a"
    "t_ns\":0,\"violations\":[]},\"invariants\":{\"checked\":true,\"probes\":16,\"kv_check"
    "ed\":false,\"ok\":true,\"violations\":[]},\"watchdog_fired\":false,\"replay_drift\":{"
    "\"misses\":0,\"diverged\":false,\"aborted\":false,\"first_function\":\"\",\"first_dig"
    "est\":\"\",\"first_at_ns\":0,\"first_call_index\":0},\"calc_invocations\":1455,\"calc"
    "_executed_real\":1455,\"calc_duration_seconds\":{\"count\":1455,\"mean\":0.0111034800"
    "00000001,\"min\":0.011103480000000001,\"max\":0.011103480000000001,\"sum\":16.1555633"
    "99999426},\"calc_lock_hold_seconds\":{\"count\":0,\"mean\":0,\"min\":0,\"max\":0,\"su"
    "m\":0},\"pil\":{\"direct_runs\":1455,\"memoized_runs\":0,\"replay_hits\":0,\"replay_m"
    "isses\":0},\"memo\":{\"records\":0,\"duplicate_puts\":0,\"determinism_violations\":0,"
    "\"lookups\":0,\"hits\":0,\"misses\":0},\"kv_issued\":0,\"kv_ok\":0,\"kv_unavailable\""
    ":0,\"kv_timeout\":0,\"kv_inflight_at_stop\":0,\"kv_retries\":0,\"kv_gave_up\":0,\"kv_"
    "latency_p50_ns\":0,\"kv_latency_p99_ns\":0,\"kv_latency_p999_ns\":0,\"kv_wal_bytes\":"
    "0,\"kv_hints_queued\":0,\"kv_hints_replayed\":0,\"kv_hints_expired\":0,\"kv_read_repa"
    "irs\":0,\"kv_ops_one\":0,\"kv_ops_quorum\":0,\"kv_ops_all\":0,\"kv_repair_sessions\":"
    "0,\"kv_repair_bytes_streamed\":0,\"kv_repair_keys_fixed\":0,\"kv_repair_aborted\":0,"
    "\"messages_sent\":11085,\"messages_delivered\":11085,\"stage_tasks_dropped\":0,\"even"
    "ts_executed\":34809}";

constexpr char kGoldenC5456Chaos[] =
    "{\"mode\":\"Colo\",\"num_nodes\":20,\"vnodes_per_node\":16,\"flaps\":6,\"flapped_pair"
    "s\":6,\"live_endpoints\":380,\"unreachable_endpoints\":0,\"test_duration_ns\":2350000"
    "00000,\"settle_time_ns\":195000000000,\"settled\":true,\"max_cpu_utilization\":0.0015"
    "650250691489362,\"peak_memory_bytes\":7910851264,\"oom\":false,\"crashed_nodes\":1,\""
    "restarted_nodes\":1,\"fault_events_applied\":5,\"fault_events_healed\":5,\"messages_b"
    "locked\":81,\"lateness_p99_ns\":4857,\"lateness_max_ns\":4857,\"lateness_early_count"
    "\":0,\"fidelity\":{\"verdict\":\"ok\",\"violated_budget\":\"\",\"first_violation_at_n"
    "s\":0,\"violations\":[]},\"invariants\":{\"checked\":true,\"probes\":24,\"kv_checked"
    "\":false,\"ok\":true,\"violations\":[]},\"watchdog_fired\":false,\"replay_drift\":{\""
    "misses\":0,\"diverged\":false,\"aborted\":false,\"first_function\":\"\",\"first_diges"
    "t\":\"\",\"first_at_ns\":0,\"first_call_index\":0},\"calc_invocations\":887,\"calc_ex"
    "ecuted_real\":887,\"calc_duration_seconds\":{\"count\":887,\"mean\":0.006569169785794"
    "8117,\"min\":0.0017244000000000001,\"max\":0.0069147999999999996,\"sum\":5.8268535999"
    "999704},\"calc_lock_hold_seconds\":{\"count\":9833,\"mean\":0.00059258147025322884,\""
    "min\":0,\"max\":0.0069147999999999996,\"sum\":5.8268535969999995},\"pil\":{\"direct_r"
    "uns\":887,\"memoized_runs\":0,\"replay_hits\":0,\"replay_misses\":0},\"memo\":{\"reco"
    "rds\":0,\"duplicate_puts\":0,\"determinism_violations\":0,\"lookups\":0,\"hits\":0,\""
    "misses\":0},\"kv_issued\":0,\"kv_ok\":0,\"kv_unavailable\":0,\"kv_timeout\":0,\"kv_in"
    "flight_at_stop\":0,\"kv_retries\":0,\"kv_gave_up\":0,\"kv_latency_p50_ns\":0,\"kv_lat"
    "ency_p99_ns\":0,\"kv_latency_p999_ns\":0,\"kv_wal_bytes\":0,\"kv_hints_queued\":0,\"k"
    "v_hints_replayed\":0,\"kv_hints_expired\":0,\"kv_read_repairs\":0,\"kv_ops_one\":0,\""
    "kv_ops_quorum\":0,\"kv_ops_all\":0,\"kv_repair_sessions\":0,\"kv_repair_bytes_streame"
    "d\":0,\"kv_repair_keys_fixed\":0,\"kv_repair_aborted\":0,\"messages_sent\":13553,\"me"
    "ssages_delivered\":13429,\"stage_tasks_dropped\":0,\"events_executed\":41696}";

TEST(SimGolden, C3831ColoN24Seed7ByteIdentical) {
  BugSpec spec = BugCatalog::Get("C3831");
  RunResult result = RunPinned(spec, 24, 7);
  EXPECT_EQ(result.ToJson(), kGoldenC3831);
}

TEST(SimGolden, C5456ColoChaosSeed7ByteIdentical) {
  BugSpec spec = BugCatalog::Get("C5456");
  spec.fault_plan = "standard-chaos";
  RunResult result = RunPinned(spec, 16, 7);
  EXPECT_EQ(result.ToJson(), kGoldenC5456Chaos);
}

// The KV data path, byte for byte: C3831 overridden to steady state with
// WAL, anti-entropy repair, one crash-restart and QUORUM client load.
BugSpec KvDurableSpec() {
  BugSpec spec = BugCatalog::Get("C3831");
  spec.workload = WorkloadKind::kSteadyState;
  spec.horizon = VirtualDuration::Seconds(120);
  spec.fault_plan = "crash-restart";
  spec.kv_ops_per_second = 1000;
  spec.kv_consistency = KvConsistency::kQuorum;
  spec.kv_wal = true;
  spec.kv_repair = true;
  return spec;
}

constexpr char kGoldenKvDurable[] =
    "{\"mode\":\"Colo\",\"num_nodes\":16,\"vnodes_per_node\":1,\"flaps\":9,\"flapped_pairs"
    "\":9,\"live_endpoints\":240,\"unreachable_endpoints\":0,\"test_duration_ns\":12000000"
    "0000,\"settle_time_ns\":0,\"settled\":true,\"max_cpu_utilization\":0.0003942579614583"
    "3332,\"peak_memory_bytes\":1216385504,\"oom\":false,\"crashed_nodes\":1,\"restarted_n"
    "odes\":1,\"fault_events_applied\":1,\"fault_events_healed\":1,\"messages_blocked\":0,"
    "\"lateness_p99_ns\":10995116,\"lateness_max_ns\":12613740,\"lateness_early_count\":0,"
    "\"fidelity\":{\"verdict\":\"ok\",\"violated_budget\":\"\",\"first_violation_at_ns\":0"
    ",\"violations\":[]},\"invariants\":{\"checked\":true,\"probes\":13,\"kv_checked\":tru"
    "e,\"ok\":true,\"violations\":[]},\"watchdog_fired\":false,\"replay_drift\":{\"misses"
    "\":0,\"diverged\":false,\"aborted\":false,\"first_function\":\"\",\"first_digest\":\""
    "\",\"first_at_ns\":0,\"first_call_index\":0},\"calc_invocations\":0,\"calc_executed_r"
    "eal\":0,\"calc_duration_seconds\":{\"count\":0,\"mean\":0,\"min\":0,\"max\":0,\"sum\""
    ":0},\"calc_lock_hold_seconds\":{\"count\":0,\"mean\":0,\"min\":0,\"max\":0,\"sum\":0}"
    ",\"pil\":{\"direct_runs\":0,\"memoized_runs\":0,\"replay_hits\":0,\"replay_misses\":0"
    "},\"memo\":{\"records\":0,\"duplicate_puts\":0,\"determinism_violations\":0,\"lookups"
    "\":0,\"hits\":0,\"misses\":0},\"kv_issued\":119989,\"kv_ok\":119951,\"kv_unavailable"
    "\":2,\"kv_timeout\":0,\"kv_inflight_at_stop\":36,\"kv_retries\":6,\"kv_gave_up\":2,\""
    "kv_latency_p50_ns\":150000,\"kv_latency_p99_ns\":250101768,\"kv_latency_p999_ns\":250"
    "101768,\"kv_wal_bytes\":17478240,\"kv_hints_queued\":92,\"kv_hints_replayed\":92,\"kv"
    "_hints_expired\":0,\"kv_read_repairs\":1383,\"kv_ops_one\":0,\"kv_ops_quorum\":119989"
    ",\"kv_ops_all\":0,\"kv_repair_sessions\":188,\"kv_repair_bytes_streamed\":2227808,\"k"
    "v_repair_keys_fixed\":2043,\"kv_repair_aborted\":0,\"messages_sent\":687748,\"message"
    "s_delivered\":680267,\"stage_tasks_dropped\":0,\"events_executed\":1004471}";

TEST(SimGolden, KvDurableN16Seed7ByteIdentical) {
  RunResult result = RunPinned(KvDurableSpec(), 16, 7);
  EXPECT_EQ(result.ToJson(), kGoldenKvDurable);
}

// A run that sheds: the C3831 Colo cell at N=128 saturates its gossip stages
// behind the inline calculation, so SYN/ACK/ACK2 jobs outlive the stage
// timeout and are dropped unrun (stage_tasks_dropped). Captured before
// SimThread began releasing an expired queued job's closures at enqueue;
// that release must not move one byte of it.
constexpr char kGoldenC3831ShedsN128[] =
    "{\"mode\":\"Colo\",\"num_nodes\":128,\"vnodes_per_node\":1,\"flaps\":1966,\"flapped_p"
    "airs\":1961,\"live_endpoints\":16129,\"unreachable_endpoints\":0,\"test_duration_ns\""
    ":170000000000,\"settle_time_ns\":130000000000,\"settled\":true,\"max_cpu_utilization"
    "\":0.60187205436139701,\"peak_memory_bytes\":9586122752,\"oom\":false,\"crashed_nodes"
    "\":0,\"restarted_nodes\":0,\"fault_events_applied\":0,\"fault_events_healed\":0,\"mes"
    "sages_blocked\":0,\"lateness_p99_ns\":3999913840,\"lateness_max_ns\":3999913840,\"lat"
    "eness_early_count\":0,\"fidelity\":{\"verdict\":\"invalid\",\"violated_budget\":\"lat"
    "eness_p99\",\"first_violation_at_ns\":40000000000,\"violations\":[{\"budget\":\"laten"
    "ess_p99\",\"severity\":\"invalid\",\"first_at_ns\":40000000000,\"observed\":3.0948500"
    "980000002,\"limit\":2},{\"budget\":\"lateness_p99\",\"severity\":\"degraded\",\"first"
    "_at_ns\":40000000000,\"observed\":3.0948500980000002,\"limit\":0.5}]},\"invariants\":"
    "{\"checked\":true,\"probes\":18,\"kv_checked\":false,\"ok\":false,\"violations\":[{\""
    "invariant\":\"gossip-convergence\",\"first_at_ns\":50000000000,\"count\":1258,\"detai"
    "l\":\"node 4 still considers live node 11 dead 50s after fault quiescence\"},{\"invar"
    "iant\":\"partition-heals\",\"first_at_ns\":50000000000,\"count\":1258,\"detail\":\"no"
    "de 11 is still islanded from node 4 50 gossip rounds after fault quiescence — the unr"
    "eachable escape hatch never re-established contact\"}]},\"watchdog_fired\":false,\"re"
    "play_drift\":{\"misses\":0,\"diverged\":false,\"aborted\":false,\"first_function\":\""
    "\",\"first_digest\":\"\",\"first_at_ns\":0,\"first_call_index\":0},\"calc_invocations"
    "\":920,\"calc_executed_real\":27,\"calc_duration_seconds\":{\"count\":920,\"mean\":1."
    "5221284783043474,\"min\":0,\"max\":1.56815028,\"sum\":1400.3582000400299},\"calc_lock"
    "_hold_seconds\":{\"count\":0,\"mean\":0,\"min\":0,\"max\":0,\"sum\":0},\"pil\":{\"dir"
    "ect_runs\":920,\"memoized_runs\":0,\"replay_hits\":0,\"replay_misses\":0},\"memo\":{"
    "\"records\":0,\"duplicate_puts\":0,\"determinism_violations\":0,\"lookups\":0,\"hits"
    "\":0,\"misses\":0},\"kv_issued\":0,\"kv_ok\":0,\"kv_unavailable\":0,\"kv_timeout\":0,"
    "\"kv_inflight_at_stop\":0,\"kv_retries\":0,\"kv_gave_up\":0,\"kv_latency_p50_ns\":0,"
    "\"kv_latency_p99_ns\":0,\"kv_latency_p999_ns\":0,\"kv_wal_bytes\":0,\"kv_hints_queued"
    "\":0,\"kv_hints_replayed\":0,\"kv_hints_expired\":0,\"kv_read_repairs\":0,\"kv_ops_on"
    "e\":0,\"kv_ops_quorum\":0,\"kv_ops_all\":0,\"kv_repair_sessions\":0,\"kv_repair_bytes"
    "_streamed\":0,\"kv_repair_keys_fixed\":0,\"kv_repair_aborted\":0,\"messages_sent\":47"
    "919,\"messages_delivered\":47919,\"stage_tasks_dropped\":11132,\"events_executed\":15"
    "1032}";

TEST(SimGolden, C3831ColoShedsN128Seed7ByteIdentical) {
  RunResult result = RunPinned(BugCatalog::Get("C3831"), 128, 7);
  EXPECT_GT(result.stage_tasks_dropped, 0u);
  EXPECT_EQ(result.ToJson(), kGoldenC3831ShedsN128);
}

}  // namespace
}  // namespace scalecheck
