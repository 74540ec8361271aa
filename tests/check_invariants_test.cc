// The runtime invariant checker (src/check/): clean runs stay clean, the
// planted left-join bug is caught as a zombie endpoint, the report is
// deterministic, and the exit-code contract distinguishes invariant
// violations (4) from fidelity verdicts (3). The registry is also driven
// directly over hand-primed ProtocolNodes, so ring-ownership,
// generation-monotonic and kv-durability are made to fire and the sighting
// aggregation (first time and detail, counts) is pinned.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/check/invariants.h"
#include "src/cluster/protocol_node.h"
#include "src/common/strings.h"
#include "src/kv/kv_history.h"
#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/scale_check.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/transport/sim_substrate.h"

namespace scalecheck {
namespace {

constexpr int kNodes = 12;
constexpr uint64_t kSeed = 1234;

BugSpec DecommissionSpec() {
  BugSpec spec = BugCatalog::Get("C3831");
  spec.calc_version = CalcVersion::kV3C3881Fix;  // fast calc; not under test
  return spec;
}

// A crash whose restart lands *after* the decommission target's LEFT state
// has disseminated (LEAVING starts at 20s, transition 90s, gossip stop at
// 130s). The restarted node re-learns every endpoint from scratch, so its
// first sighting of the departed node is the LEFT tombstone — exactly the
// schedule the planted recovery bug mishandles.
FaultPlan LateRestartCrash() {
  FaultPlan plan;
  plan.name = "late-restart-crash";
  FaultEvent ev;
  ev.kind = FaultKind::kCrash;
  ev.at = VirtualDuration::Seconds(145);
  ev.duration = VirtualDuration::Seconds(20);
  ev.nodes_a = {9};
  plan.events.push_back(ev);
  return plan;
}

TEST(InvariantsTest, CleanDecommissionRunHasNoViolations) {
  BugSpec spec = DecommissionSpec();
  RunResult result = RunSingle(spec, kNodes, RunMode::kColocated, kSeed);
  EXPECT_TRUE(result.invariants.checked);
  EXPECT_GT(result.invariants.probes, 0u);
  EXPECT_TRUE(result.invariants.ok())
      << result.invariants.ToJson();
  EXPECT_EQ(RunExitCode(result), 0);
}

TEST(InvariantsTest, DisabledCheckerReportsUnchecked) {
  BugSpec spec = DecommissionSpec();
  spec.check.enabled = false;
  RunResult result = RunSingle(spec, kNodes, RunMode::kColocated, kSeed);
  EXPECT_FALSE(result.invariants.checked);
  EXPECT_EQ(result.invariants.probes, 0u);
  EXPECT_EQ(RunExitCode(result), 0);
}

TEST(InvariantsTest, LateRestartWithoutPlantedBugStaysClean) {
  // The adverse schedule alone is survivable: the correct recovery path
  // honours the LEFT tombstone, so no invariant fires.
  BugSpec spec = DecommissionSpec();
  spec.custom_faults = LateRestartCrash();
  RunResult result = RunSingle(spec, kNodes, RunMode::kColocated, kSeed);
  EXPECT_TRUE(result.invariants.checked);
  EXPECT_TRUE(result.invariants.ok()) << result.invariants.ToJson();
  EXPECT_EQ(result.restarted_nodes, 1);
}

TEST(InvariantsTest, PlantedLeftJoinBugIsCaughtAsZombieEndpoint) {
  BugSpec spec = DecommissionSpec();
  spec.custom_faults = LateRestartCrash();
  spec.check.plant_left_join_bug = true;
  RunResult result = RunSingle(spec, kNodes, RunMode::kColocated, kSeed);
  ASSERT_TRUE(result.invariants.checked);
  ASSERT_FALSE(result.invariants.ok());
  std::vector<std::string> names = result.invariants.ViolatedNames();
  ASSERT_EQ(names.size(), 1u) << result.invariants.ToJson();
  EXPECT_EQ(names[0], "zombie-endpoint");
  // The first-violation timestamp is a real probe instant after the restart.
  const InvariantViolation& v = result.invariants.violations[0];
  EXPECT_GT(v.first_at.nanos(), VirtualDuration::Seconds(165).nanos());
  EXPECT_GT(v.count, 0);
  EXPECT_FALSE(v.detail.empty());
  // Violations surface in the human summary and drive the exit code.
  EXPECT_NE(result.Summary().find("INVARIANT:zombie-endpoint"),
            std::string::npos);
  EXPECT_EQ(RunExitCode(result), 4);
}

TEST(InvariantsTest, ViolationReportIsDeterministic) {
  BugSpec spec = DecommissionSpec();
  spec.custom_faults = LateRestartCrash();
  spec.check.plant_left_join_bug = true;
  RunResult a = RunSingle(spec, kNodes, RunMode::kColocated, kSeed);
  RunResult b = RunSingle(spec, kNodes, RunMode::kColocated, kSeed);
  EXPECT_EQ(a.ToJson(), b.ToJson());
  EXPECT_EQ(a.invariants.ToJson(), b.invariants.ToJson());
}

TEST(InvariantsTest, KvHistoryCheckedOnSteadyState) {
  BugSpec spec = DecommissionSpec();
  spec.workload = WorkloadKind::kSteadyState;
  spec.horizon = VirtualDuration::Seconds(120);
  spec.kv_ops_per_second = 25.0;
  RunResult result = RunSingle(spec, kNodes, RunMode::kColocated, kSeed);
  EXPECT_TRUE(result.invariants.checked);
  EXPECT_TRUE(result.invariants.kv_checked);
  EXPECT_TRUE(result.invariants.ok()) << result.invariants.ToJson();
}

TEST(InvariantsTest, KvHistoryNotCheckableUnderMembershipChange) {
  // Decommission moves key ownership; the simulator has no data streaming,
  // so acked data legitimately strands and the kv gate must stay off.
  BugSpec spec = DecommissionSpec();
  spec.kv_ops_per_second = 25.0;
  RunResult result = RunSingle(spec, kNodes, RunMode::kColocated, kSeed);
  EXPECT_TRUE(result.invariants.checked);
  EXPECT_FALSE(result.invariants.kv_checked);
}

TEST(InvariantsTest, CrashedDecommissionTargetRejoinsCleanly) {
  // Regression for the incarnation guard on deferred lifecycle lambdas:
  // crash the decommission *target* mid-transition (LEAVING since 20s,
  // LEFT due at 110s; crash 60s..100s). The stale LEFT/stop continuations
  // belong to the dead incarnation and must not fire against the restarted
  // node, which rejoins NORMAL with its durable tokens.
  BugSpec spec = DecommissionSpec();
  FaultPlan plan;
  plan.name = "crash-decommission-target";
  FaultEvent ev;
  ev.kind = FaultKind::kCrash;
  ev.at = VirtualDuration::Seconds(60);
  ev.duration = VirtualDuration::Seconds(40);
  ev.nodes_a = {kNodes / 2};  // the decommission target
  plan.events.push_back(ev);
  spec.custom_faults = plan;
  RunResult result = RunSingle(spec, kNodes, RunMode::kColocated, kSeed);
  EXPECT_EQ(result.restarted_nodes, 1);
  EXPECT_TRUE(result.invariants.checked);
  EXPECT_TRUE(result.invariants.ok()) << result.invariants.ToJson();
}

TEST(InvariantsTest, IslandingPartitionHealsViaEscapeHatch) {
  // Regression for the ChaosSearch-found islanding schedule: partition one
  // node away long enough for mutual conviction, then heal the links. With
  // gossip only ever targeting the live view this cluster stayed split
  // forever; the gossip-to-unreachable escape hatch (plus the seed-contact
  // fallback on the fully islanded node) must re-knit it within the
  // partition-heals bound.
  BugSpec spec = DecommissionSpec();
  spec.workload = WorkloadKind::kSteadyState;
  spec.horizon = VirtualDuration::Seconds(120);
  spec.custom_faults = FaultPlan::IslandPartition(kNodes, kSeed);
  RunResult result = RunSingle(spec, kNodes, RunMode::kColocated, kSeed);
  // The partition actually bit: frames were refused and conviction happened.
  EXPECT_GT(result.messages_blocked, 0u);
  EXPECT_GT(result.flaps, 0);
  EXPECT_EQ(result.fault_events_applied, 1);
  EXPECT_EQ(result.fault_events_healed, 1);
  // ...and the cluster healed: everyone sees everyone, nothing unreachable.
  EXPECT_TRUE(result.invariants.checked);
  EXPECT_TRUE(result.invariants.ok()) << result.invariants.ToJson();
  EXPECT_EQ(result.unreachable_endpoints, 0) << result.Summary();
  EXPECT_EQ(result.live_endpoints, int64_t{kNodes} * (kNodes - 1));
  EXPECT_EQ(RunExitCode(result), 0);
}

TEST(InvariantsTest, PermanentPartitionTripsPartitionHeals) {
  // Positive control for the new invariant: a partition that never heals
  // (duration zero = no heal event) must be reported as partition-heals,
  // not silently tolerated, and must map to the invariant exit code.
  BugSpec spec = DecommissionSpec();
  spec.workload = WorkloadKind::kSteadyState;
  spec.horizon = VirtualDuration::Seconds(120);
  FaultPlan plan;
  plan.name = "permanent-island";
  FaultEvent ev;
  ev.kind = FaultKind::kPartition;
  ev.at = VirtualDuration::Seconds(8);
  ev.duration = VirtualDuration::Zero();  // never heals
  ev.nodes_a = {kNodes - 1};
  plan.events.push_back(ev);
  spec.custom_faults = plan;
  RunResult result = RunSingle(spec, kNodes, RunMode::kColocated, kSeed);
  EXPECT_TRUE(result.invariants.checked);
  EXPECT_FALSE(result.invariants.ok());
  std::vector<std::string> names = result.invariants.ViolatedNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "partition-heals"),
            names.end())
      << result.invariants.ToJson();
  EXPECT_GT(result.unreachable_endpoints, 0) << result.Summary();
  EXPECT_EQ(RunExitCode(result), 4);
}

// ---- The registry over hand-primed protocol cores --------------------------

class NullHost final : public ProtocolNode::Host {
 public:
  void OnConviction(NodeId /*ep*/, VirtualTime /*now*/) override {}
  void OnRescue(NodeId /*ep*/, bool /*restarted*/) override {}
  void OnStatusTransition(NodeId /*ep*/, StatusKind /*new_status*/) override {}
  void OnPendingSetChanged() override {}
  void RunCalculator() override {}
};

// Two protocol cores over the simulated substrate, each primed as a settled
// two-member cluster, probed through their NodeViews with no Cluster around
// them. Every probe runs at t=0 with no faults, so the time-gated
// invariants stay quiet and only the one under test can fire.
class RegistryOverCoresTest : public ::testing::Test {
 protected:
  static constexpr int kTokens = 4;

  RegistryOverCoresTest() {
    config_.vnodes_per_node = kTokens;
    for (NodeId id : {0, 1}) {
      cores_.push_back(std::make_unique<ProtocolNode>(
          id, /*seed=*/42 + id,
          ProtocolNode::Deps{
              .config = &config_,
              .transport = &transport_,
              .clock = &sim_,
              .host = &host_,
              .kv_stage = nullptr,
              .kv_charge = nullptr,
              .kv_history = nullptr,
          }));
      tokens_[id] = GenerateTokens(id, kTokens, config_.seed);
      views_.push_back(NodeView{cores_.back().get(), /*started=*/true});
    }
    registry_.AddBuiltins();
  }

  // Primes core `id` with `members` and settles its ring view.
  void Prime(NodeId id, const std::map<NodeId, std::vector<Token>>& members) {
    cores_[id]->PrimeSettled(members);
    cores_[id]->MaybeRecalc();
    ASSERT_TRUE(cores_[id]->IsSettledView());
  }

  void Probe() {
    InvariantContext ctx;
    ctx.now = VirtualTime::Zero();
    ctx.nodes = &views_;
    ctx.config = &config_;
    registry_.Probe(ctx);
  }

  const InvariantViolation* Find(const std::string& name) const {
    for (const InvariantViolation& v : registry_.report().violations) {
      if (v.invariant == name) return &v;
    }
    return nullptr;
  }

  ClusterConfig config_;
  Simulator sim_{1};
  NetworkModel network_{&sim_, NetworkModel::Config{}, /*seed=*/7};
  SimTransport transport_{&network_};
  NullHost host_;
  std::vector<std::unique_ptr<ProtocolNode>> cores_;
  std::vector<NodeView> views_;
  std::map<NodeId, std::vector<Token>> tokens_;
  InvariantRegistry registry_{CheckOptions{}};
};

TEST_F(RegistryOverCoresTest, AgreeingViewsAreClean) {
  Prime(0, tokens_);
  Prime(1, tokens_);
  Probe();
  Probe();
  EXPECT_EQ(registry_.report().probes, 2u);
  EXPECT_TRUE(registry_.report().ok()) << registry_.report().ToJson();
}

TEST_F(RegistryOverCoresTest, MisassignedTokensTripRingOwnership) {
  // Viewer 0 believes node 1 owns one token fewer than node 1 holds; node
  // 1's own view is right.
  std::map<NodeId, std::vector<Token>> wrong = tokens_;
  wrong[1].pop_back();
  Prime(0, wrong);
  Prime(1, tokens_);
  Probe();
  Probe();
  ASSERT_EQ(registry_.report().ViolatedNames(), std::vector<std::string>{"ring-ownership"})
      << registry_.report().ToJson();
  const InvariantViolation& v = registry_.report().violations[0];
  EXPECT_EQ(v.detail, "node 0's ring assigns node 1 3 tokens, owner holds 4");
  EXPECT_EQ(v.first_at, VirtualTime::Zero());
  EXPECT_EQ(v.count, 2);  // one misassigned (viewer, subject) pair per probe
}

TEST_F(RegistryOverCoresTest, LowerGenerationTripsGenerationMonotonic) {
  Prime(0, tokens_);
  Prime(1, tokens_);
  Probe();  // viewer 0 records node 1 at generation 1
  ASSERT_TRUE(registry_.report().ok()) << registry_.report().ToJson();
  Gossiper& gossiper = cores_[0]->gossiper();
  gossiper.RemoveEndpoint(1);
  gossiper.AddKnownEndpoint(1, EndpointState(/*generation=*/0));
  Probe();
  const InvariantViolation* v = Find("generation-monotonic");
  ASSERT_NE(v, nullptr) << registry_.report().ToJson();
  EXPECT_EQ(v->detail, "node 0 saw node 1's generation move backwards (1 -> 0)");
  EXPECT_EQ(v->count, 1);
}

TEST_F(RegistryOverCoresTest, LowerVersionTripsGenerationMonotonic) {
  Prime(0, tokens_);
  Prime(1, tokens_);
  Probe();  // viewer 0 records node 1 at generation 1, max version 1 (STATUS)
  ASSERT_TRUE(registry_.report().ok()) << registry_.report().ToJson();
  Gossiper& gossiper = cores_[0]->gossiper();
  gossiper.RemoveEndpoint(1);
  gossiper.AddKnownEndpoint(1, EndpointState(/*generation=*/1));  // no STATUS: version 0
  Probe();
  const InvariantViolation* v = Find("generation-monotonic");
  ASSERT_NE(v, nullptr) << registry_.report().ToJson();
  EXPECT_EQ(v->detail,
            "node 0 saw node 1's version move backwards (1 -> 0) within generation 1");
  EXPECT_EQ(v->count, 1);
}

TEST_F(RegistryOverCoresTest, ForgottenEndpointKeepsItsLastRecord) {
  // A probe that runs while viewer 0 has forgotten node 1 does not reset
  // the record: the lower generation that comes back is still caught.
  Prime(0, tokens_);
  Prime(1, tokens_);
  Probe();
  cores_[0]->gossiper().RemoveEndpoint(1);
  Probe();
  ASSERT_TRUE(registry_.report().ok()) << registry_.report().ToJson();
  cores_[0]->gossiper().AddKnownEndpoint(1, EndpointState(/*generation=*/0));
  Probe();
  EXPECT_NE(Find("generation-monotonic"), nullptr) << registry_.report().ToJson();
}

TEST_F(RegistryOverCoresTest, ViewerRestartClearsItsRecords) {
  // A restarted viewer re-learns its peers from scratch, so a peer seen at a
  // lower version than before the restart is not a regression.
  Prime(0, tokens_);
  Prime(1, tokens_);
  Probe();
  cores_[0]->Crash();
  cores_[0]->Restart({1});  // node 1 comes back as a bare generation-0 contact
  Probe();
  EXPECT_EQ(Find("generation-monotonic"), nullptr) << registry_.report().ToJson();
}

// Reports a scripted sequence of sightings, numbering each call.
class ScriptedInvariant final : public Invariant {
 public:
  const char* name() const override { return "scripted"; }
  void Probe(const InvariantContext& ctx, InvariantRegistry* sink) override {
    for (const char* sighted : script_[probe_++]) {
      ++call_;
      sink->ReportViolation(sighted, ctx.now, "%s sighting %d", sighted, call_);
    }
  }

 private:
  std::vector<std::vector<const char*>> script_ = {
      {"beta"}, {"alpha", "beta", "alpha"}, {"beta"}};
  size_t probe_ = 0;
  int call_ = 0;
};

// ---- kv-durability over hand-built histories ----------------------------------

class NoopStage final : public Stage {
 public:
  void Submit(const char* /*label*/, OpFn /*op*/, DoneFn /*done*/) override {}
};

// Four KV cores whose storage engines start empty, so every acked write an
// acker is on the hook for is a violation unless the test stores a newer
// version. Node 3 is not started, so its obligations are skipped.
class KvDurabilityOverCoresTest : public ::testing::Test {
 protected:
  static constexpr NodeId kCores = 4;

  KvDurabilityOverCoresTest() {
    config_.kv.enabled = true;
    config_.kv.wal = true;
    for (NodeId id = 0; id < kCores; ++id) {
      cores_.push_back(std::make_unique<ProtocolNode>(
          id, /*seed=*/7 + id,
          ProtocolNode::Deps{
              .config = &config_,
              .transport = &transport_,
              .clock = &sim_,
              .host = &host_,
              .kv_stage = &stage_,
              .kv_charge = nullptr,
              .kv_history = nullptr,
          }));
      views_.push_back(NodeView{cores_.back().get(), /*started=*/id != 3});
    }
    registry_.AddBuiltins();
  }

  // One concluded write of `key` acked by `ackers` at `timestamp`.
  void AckedWrite(uint64_t key, int64_t timestamp, std::vector<NodeId> ackers,
                  KvOutcome outcome = KvOutcome::kOk) {
    const VirtualTime now = VirtualTime::Zero() + VirtualDuration::Millis(++clock_ms_);
    uint64_t id = history_.RecordIssued(/*coordinator=*/0, /*is_write=*/true, key, "v", now);
    if (outcome == KvOutcome::kOk) history_.RecordWriteAcked(id, timestamp, ackers);
    history_.RecordConcluded(id, outcome, "", now);
  }

  void Probe() {
    InvariantContext ctx;
    ctx.now = VirtualTime::Zero() + VirtualDuration::Millis(++clock_ms_);
    ctx.nodes = &views_;
    ctx.config = &config_;
    ctx.kv_checkable = true;
    ctx.history = &history_;
    registry_.Probe(ctx);
  }

  // What the (key, acker)-ordered std::map the checker used to keep
  // reports: its first violating pair, and how many pairs violate.
  std::pair<std::string, int64_t> Reference() const {
    std::map<std::pair<uint64_t, NodeId>, int64_t> required;
    for (uint64_t id : history_.conclusion_order()) {
      const KvOpRecord& rec = history_.ops()[id];
      if (!rec.is_write || rec.outcome != KvOutcome::kOk) continue;
      for (NodeId acker : rec.ackers) {
        int64_t& ts = required[{rec.key, acker}];
        ts = std::max(ts, rec.write_timestamp);
      }
    }
    std::string first;
    int64_t violators = 0;
    for (const auto& [key_acker, ts] : required) {
      const auto [key, acker] = key_acker;
      if (acker >= kCores || !views_[acker].started) continue;
      int64_t have = cores_[acker]->kv()->storage().TimestampOf(key);
      if (have >= ts) continue;
      ++violators;
      if (first.empty()) {
        first = StrFormat(
            "node %lld acknowledged a write of key %llu at timestamp %lld but "
            "now holds %lld (acked write lost across crash/restart)",
            static_cast<long long>(acker), static_cast<unsigned long long>(key),
            static_cast<long long>(ts), static_cast<long long>(have));
      }
    }
    return {first, violators};
  }

  const InvariantViolation* Durability() const {
    for (const InvariantViolation& v : registry_.report().violations) {
      if (v.invariant == "kv-durability") return &v;
    }
    return nullptr;
  }

  ClusterConfig config_;
  Simulator sim_{1};
  NetworkModel network_{&sim_, NetworkModel::Config{}, /*seed=*/7};
  SimTransport transport_{&network_};
  NullHost host_;
  NoopStage stage_;
  std::vector<std::unique_ptr<ProtocolNode>> cores_;
  std::vector<NodeView> views_;
  KvHistory history_;
  InvariantRegistry registry_{CheckOptions{}};
  int64_t clock_ms_ = 0;
};

TEST_F(KvDurabilityOverCoresTest, FirstViolationIsTheSmallestKeyAckerPair) {
  // Several violators, concluded out of (key, acker) order, with repeats of
  // a pair at older and newer timestamps, an acker that is not running (3),
  // one past the node table (9), a failed write, and one pair whose acker
  // holds a newer version.
  AckedWrite(/*key=*/50, 500, {2, 1});
  AckedWrite(/*key=*/7, 700, {3, 2});
  AckedWrite(/*key=*/7, 650, {2, 0});
  AckedWrite(/*key=*/7, 900, {1, 9});
  AckedWrite(/*key=*/3, 300, {0}, KvOutcome::kTimeout);
  AckedWrite(/*key=*/12, 120, {0, 1});
  cores_[0]->kv()->storage().Put(12, "newer", 200);
  Probe();
  auto [first, violators] = Reference();
  const InvariantViolation* v = Durability();
  ASSERT_NE(v, nullptr) << registry_.report().ToJson();
  EXPECT_EQ(v->detail, first);
  EXPECT_EQ(v->detail,
            "node 0 acknowledged a write of key 7 at timestamp 650 but now "
            "holds 0 (acked write lost across crash/restart)");
  EXPECT_EQ(v->count, violators);
  EXPECT_EQ(violators, 6);  // (7,0) (7,1) (7,2) (12,1) (50,1) (50,2): not (12,0)

  // A later probe merges new obligations (a smaller key, a newer timestamp
  // for a known pair) into the sorted ones: every violator counts again,
  // and the first sighting's detail stays.
  AckedWrite(/*key=*/2, 20, {2});
  AckedWrite(/*key=*/7, 1000, {0});
  Probe();
  auto [first_now, violators_now] = Reference();
  EXPECT_EQ(first_now,
            "node 2 acknowledged a write of key 2 at timestamp 20 but now "
            "holds 0 (acked write lost across crash/restart)");
  EXPECT_EQ(v->detail, first);
  EXPECT_EQ(v->count, violators + violators_now);
}

TEST(InvariantRegistryTest, FirstSightingWinsTimeAndDetailLaterOnesCount) {
  InvariantRegistry registry{CheckOptions{}};
  registry.Add(std::make_unique<ScriptedInvariant>());
  const std::vector<NodeView> none;
  for (int64_t second = 1; second <= 3; ++second) {
    InvariantContext ctx;
    ctx.now = VirtualTime::Zero() + VirtualDuration::Seconds(second);
    ctx.nodes = &none;
    registry.Probe(ctx);
  }
  const InvariantReport& report = registry.report();
  EXPECT_EQ(report.probes, 3u);
  ASSERT_EQ(report.ViolatedNames(), (std::vector<std::string>{"beta", "alpha"}));
  const InvariantViolation& beta = report.violations[0];
  EXPECT_EQ(beta.first_at, VirtualTime::Zero() + VirtualDuration::Seconds(1));
  EXPECT_EQ(beta.detail, "beta sighting 1");
  EXPECT_EQ(beta.count, 3);
  const InvariantViolation& alpha = report.violations[1];
  EXPECT_EQ(alpha.first_at, VirtualTime::Zero() + VirtualDuration::Seconds(2));
  EXPECT_EQ(alpha.detail, "alpha sighting 2");
  EXPECT_EQ(alpha.count, 2);
}

}  // namespace
}  // namespace scalecheck
