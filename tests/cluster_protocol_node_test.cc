// ProtocolNode on its own: the carrier-neutral protocol core driven over the
// Simulator and a SimTransport with a recording host, so the behaviours both
// carriers now share are pinned without either host around them.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/cluster/protocol_node.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/transport/sim_substrate.h"

namespace scalecheck {
namespace {

constexpr NodeId kSelf = 0;

// Runs replica work to completion on the caller (no modelled cost).
class InlineStage final : public Stage {
 public:
  void Submit(const char* /*label*/, OpFn op, DoneFn done) override {
    op();
    done();
  }
};

class RecordingHost final : public ProtocolNode::Host {
 public:
  void OnConviction(NodeId ep, VirtualTime /*now*/) override { downs.push_back(ep); }
  void OnRescue(NodeId ep, bool /*restarted*/) override { ups.push_back(ep); }
  void OnStatusTransition(NodeId /*ep*/, StatusKind new_status) override {
    statuses.push_back(new_status);
  }
  void OnPendingSetChanged() override { ++pending_set_changes; }
  void RunCalculator() override {
    ++calculator_runs;
    CalcInput input;
    core->BeginCalc(&input);
    core->FinishCalc();
  }

  ProtocolNode* core = nullptr;
  std::vector<NodeId> downs;
  std::vector<NodeId> ups;
  std::vector<StatusKind> statuses;
  int pending_set_changes = 0;
  int calculator_runs = 0;
};

class ProtocolNodeTest : public ::testing::Test {
 protected:
  void Build(ClusterConfig config) {
    config_ = std::move(config);
    core_.emplace(kSelf, /*seed=*/42,
                  ProtocolNode::Deps{
                      .config = &config_,
                      .transport = &transport_,
                      .clock = &sim_,
                      .host = &host_,
                      .kv_stage = &stage_,
                      .kv_charge = nullptr,
                      .kv_history = nullptr,
                  });
    host_.core = &*core_;
    std::map<NodeId, std::vector<Token>> members;
    for (NodeId id : {0, 1, 2}) {
      members[id] = GenerateTokens(id, config_.vnodes_per_node, config_.seed);
    }
    core_->PrimeSettled(members);
  }

  // Delivers one endpoint state for `ep`, as an ACK or ACK2 would.
  void Merge(NodeId ep, int64_t generation, int64_t heartbeat,
             std::optional<StatusKind> status = std::nullopt, int64_t version = 0) {
    EndpointState state(generation);
    state.mutable_heartbeat().version = heartbeat;
    if (status.has_value()) {
      VersionedValue value;
      value.version = version;
      value.status = *status;
      value.tokens = GenerateTokens(ep, config_.vnodes_per_node, config_.seed);
      state.Set(ApplicationStateKey::kStatus, value);
    }
    EndpointStateMap states;
    states[ep] = state;
    core_->MergeStates(states);
  }

  void AdvanceSeconds(int64_t seconds) {
    sim_.ScheduleAfter(VirtualDuration::Seconds(seconds), [] {});
    sim_.RunUntilIdle();
  }

  ClusterConfig config_;
  Simulator sim_{1};
  NetworkModel network_{&sim_, NetworkModel::Config{}, /*seed=*/7};
  SimTransport transport_{&network_};
  InlineStage stage_;
  RecordingHost host_;
  std::optional<ProtocolNode> core_;
};

TEST_F(ProtocolNodeTest, BootstrappingTwiceYieldsOnePendingChange) {
  Build(ClusterConfig{});
  Merge(5, /*generation=*/1, /*heartbeat=*/1, StatusKind::kBootstrapping, 2);
  ASSERT_EQ(core_->pending_changes().size(), 1u);
  // The joiner restarts (its new generation carries no STATUS yet) and then
  // re-announces BOOT: a second BOOTSTRAPPING transition for the same node.
  Merge(5, /*generation=*/2, /*heartbeat=*/1);
  Merge(5, /*generation=*/2, /*heartbeat=*/2, StatusKind::kBootstrapping, 3);
  EXPECT_EQ(host_.statuses,
            (std::vector<StatusKind>{StatusKind::kBootstrapping, StatusKind::kUnknown,
                                     StatusKind::kBootstrapping}));
  ASSERT_EQ(core_->pending_changes().size(), 1u);
  EXPECT_EQ(core_->pending_changes()[0].node, 5);
  EXPECT_EQ(core_->pending_changes()[0].kind, ChangeKind::kJoining);
  EXPECT_EQ(host_.pending_set_changes, 1);
}

TEST_F(ProtocolNodeTest, LeftEndpointIsUnmonitoredAndNeverConvicted) {
  Build(ClusterConfig{});
  Merge(1, /*generation=*/1, /*heartbeat=*/1, StatusKind::kLeft, 2);
  EXPECT_FALSE(core_->ring().HasNode(1));
  EXPECT_FALSE(core_->gossiper().IsAlive(1));
  // Minutes of silence from both peers: only the NORMAL one is convicted.
  AdvanceSeconds(120);
  core_->SweepFailures();
  core_->SweepFailures();
  EXPECT_EQ(host_.downs, std::vector<NodeId>{2});
  // A late heartbeat from the departed node does not revive it either.
  Merge(1, /*generation=*/1, /*heartbeat=*/5);
  EXPECT_TRUE(host_.ups.empty());
  EXPECT_FALSE(core_->gossiper().IsAlive(1));
}

TEST_F(ProtocolNodeTest, PendingEndpointHeartbeatDirtiesRingOnlyUnderAnyApply) {
  for (RecalcTrigger trigger :
       {RecalcTrigger::kAnyApplyOfPendingEndpoint, RecalcTrigger::kStatusChangeOnly}) {
    host_ = RecordingHost();
    ClusterConfig config;
    config.recalc_trigger = trigger;
    Build(config);
    Merge(5, /*generation=*/1, /*heartbeat=*/1, StatusKind::kBootstrapping, 2);
    core_->MaybeRecalc();
    ASSERT_EQ(host_.calculator_runs, 1);
    // A bare heartbeat advance for the joining endpoint.
    Merge(5, /*generation=*/1, /*heartbeat=*/3);
    core_->MaybeRecalc();
    EXPECT_EQ(host_.calculator_runs,
              trigger == RecalcTrigger::kAnyApplyOfPendingEndpoint ? 2 : 1);
    // A heartbeat from an endpoint with nothing pending never dirties it.
    Merge(1, /*generation=*/1, /*heartbeat=*/3);
    int runs = host_.calculator_runs;
    core_->MaybeRecalc();
    EXPECT_EQ(host_.calculator_runs, runs);
  }
}

TEST_F(ProtocolNodeTest, ConvictionThenHeartbeatIsOneDownOneUpAndReplaysHints) {
  ClusterConfig config;
  config.kv.enabled = true;
  config.kv.consistency = KvConsistency::kOne;
  Build(config);
  Merge(1, /*generation=*/1, /*heartbeat=*/1);
  AdvanceSeconds(30);
  Merge(1, /*generation=*/1, /*heartbeat=*/2);  // node 1 stays fresh
  core_->SweepFailures();
  core_->SweepFailures();  // already dead: no second conviction
  ASSERT_EQ(host_.downs, std::vector<NodeId>{2});
  ASSERT_FALSE(core_->gossiper().IsAlive(2));

  // A write while node 2 is convicted leaves it a hint.
  core_->kv()->Write(/*key=*/7, "v", [](KvOutcome, std::string) {});
  ASSERT_EQ(core_->kv()->stats().hints_queued, 1);

  // Its next heartbeat rescues it once, and the rescue replays the hint
  // through KvService::OnReplicaAlive.
  Merge(2, /*generation=*/1, /*heartbeat=*/2);
  Merge(2, /*generation=*/1, /*heartbeat=*/3);
  EXPECT_EQ(host_.ups, std::vector<NodeId>{2});
  EXPECT_TRUE(core_->gossiper().IsAlive(2));
  EXPECT_EQ(core_->kv()->stats().hints_replayed, 1);
  EXPECT_EQ(core_->kv()->hint_queue_depth(), 0);
}

TEST_F(ProtocolNodeTest, RestartResetLeavesOnlyFreshState) {
  Build(ClusterConfig{});
  Merge(5, /*generation=*/1, /*heartbeat=*/1, StatusKind::kBootstrapping, 2);
  ASSERT_EQ(core_->pending_changes().size(), 1u);
  ASSERT_EQ(core_->ring().num_nodes(), 3u);
  const std::vector<Token> tokens = core_->my_tokens();

  core_->Crash();
  core_->Restart({1, 2});
  EXPECT_FALSE(core_->crashed());
  EXPECT_EQ(core_->generation(), 2);
  EXPECT_TRUE(core_->pending_changes().empty());
  EXPECT_TRUE(core_->pending_ranges().empty());
  EXPECT_TRUE(core_->IsSettledView());
  ASSERT_EQ(core_->ring().num_nodes(), 1u);
  EXPECT_TRUE(core_->ring().HasNode(kSelf));
  EXPECT_EQ(core_->my_tokens(), tokens);  // the durable assignment survives
  EXPECT_EQ(core_->gossiper().LocalState().Status(), StatusKind::kNormal);
  EXPECT_EQ(core_->gossiper().endpoints().size(), 3u);  // self + contacts
  // A fresh failure detector has no arrival history for the contacts, so
  // their silence convicts nobody (the primed detector would have).
  AdvanceSeconds(120);
  core_->SweepFailures();
  EXPECT_TRUE(host_.downs.empty());
}

}  // namespace
}  // namespace scalecheck
