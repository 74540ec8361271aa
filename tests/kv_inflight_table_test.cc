// The coordinator's in-flight table (src/kv/inflight_table.h) on its own, and
// KvService driving it: attempt timeouts, responses for stale, future and
// fire-and-forget (0) op ids, a window of live attempts that outgrows the
// ring, and an attempt that finishes synchronously inside its own send loop
// on an inline stage.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/protocol_node.h"
#include "src/kv/inflight_table.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/transport/sim_substrate.h"

namespace scalecheck {
namespace {

// ---- The table ---------------------------------------------------------------

TEST(InflightTable, IssuesIncreasingIdsAndFindsOnlyLiveOnes) {
  InflightTable<int> table;
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_EQ(table.Find(1), nullptr);  // not issued yet
  auto [a, a_value] = table.Insert();
  *a_value = 10;
  auto [b, b_value] = table.Insert();
  *b_value = 20;
  auto [c, c_value] = table.Insert();
  *c_value = 30;
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(c, 3u);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.Find(0), nullptr);  // fire-and-forget id
  EXPECT_EQ(table.Find(4), nullptr);  // future id
  ASSERT_NE(table.Find(a), nullptr);
  EXPECT_EQ(*table.Find(a), 10);
  table.Erase(b);
  EXPECT_EQ(table.Find(b), nullptr);  // stale id inside the live window
  table.Erase(a);
  EXPECT_EQ(table.Find(a), nullptr);  // stale id below it
  ASSERT_NE(table.Find(c), nullptr);
  EXPECT_EQ(*table.Find(c), 30);
  EXPECT_EQ(table.size(), 1u);
}

TEST(InflightTable, GrowsPastTheRingWithTheOldestStillLive) {
  InflightTable<uint64_t> table;
  auto [oldest, oldest_value] = table.Insert();
  *oldest_value = oldest;
  std::vector<uint64_t> live;
  // The oldest id pins the window's base, so the window spans every id
  // issued since and the ring has to grow several times.
  for (int i = 0; i < 100; ++i) {
    auto [id, value] = table.Insert();
    *value = id * 7;
    live.push_back(id);
    if (i % 3 == 0) {
      table.Erase(live.front());
      live.erase(live.begin());
    }
  }
  EXPECT_GE(table.capacity(), 101u - 34u);
  ASSERT_NE(table.Find(oldest), nullptr);
  EXPECT_EQ(*table.Find(oldest), oldest);
  for (uint64_t id : live) {
    ASSERT_NE(table.Find(id), nullptr) << id;
    EXPECT_EQ(*table.Find(id), id * 7);
  }
  EXPECT_EQ(table.size(), live.size() + 1);
  // Once the oldest finishes, the window shrinks to the live tail and the
  // ring is reused without growing again.
  table.Erase(oldest);
  for (uint64_t id : live) table.Erase(id);
  const size_t capacity = table.capacity();
  for (int i = 0; i < 1000; ++i) {
    auto [id, value] = table.Insert();
    *value = id;
    table.Erase(id);
  }
  EXPECT_EQ(table.capacity(), capacity);
  EXPECT_EQ(table.size(), 0u);
}

// ---- KvService over it --------------------------------------------------------

// Runs replica work to completion on the caller (no modelled cost), as the
// real carrier does.
class InlineStage final : public Stage {
 public:
  void Submit(const char* /*label*/, OpFn op, DoneFn done) override {
    op();
    done();
  }
};

class NullHost final : public ProtocolNode::Host {
 public:
  void OnConviction(NodeId /*ep*/, VirtualTime /*now*/) override {}
  void OnRescue(NodeId /*ep*/, bool /*restarted*/) override {}
  void OnStatusTransition(NodeId /*ep*/, StatusKind /*new_status*/) override {}
  void OnPendingSetChanged() override {}
  void RunCalculator() override {}
};

// Node 0 of a settled three-node ring (every key has all three nodes as
// replicas) on an inline stage, with the WAL off so its own replica acks at
// once. Nodes 1 and 2 are not on the network: their requests vanish, so
// they answer only through Respond.
class CoordinatorTest : public ::testing::Test {
 protected:
  void Build(KvConsistency consistency) {
    config_.kv.enabled = true;
    config_.kv.consistency = consistency;
    core_.emplace(0, /*seed=*/42,
                  ProtocolNode::Deps{
                      .config = &config_,
                      .transport = &transport_,
                      .clock = &sim_,
                      .host = &host_,
                      .kv_stage = &stage_,
                      .kv_charge = nullptr,
                      .kv_history = nullptr,
                  });
    std::map<NodeId, std::vector<Token>> members;
    for (NodeId id : {0, 1, 2}) {
      members[id] = GenerateTokens(id, config_.vnodes_per_node, config_.seed);
    }
    core_->PrimeSettled(members);
  }

  KvService& kv() { return *core_->kv(); }

  // Starts a write whose outcome lands in outcomes_[index].
  void Write(size_t index) {
    if (outcomes_.size() <= index) outcomes_.resize(index + 1);
    kv().Write(/*key=*/index, "v", [this, index](KvOutcome outcome, std::string) {
      ASSERT_FALSE(outcomes_[index].has_value()) << "concluded twice";
      outcomes_[index] = outcome;
    });
  }

  // Replica `from`'s write ack for `op_id`.
  void Respond(NodeId from, uint64_t op_id) {
    auto resp = std::make_shared<KvResponsePayload>();
    resp->op_id = op_id;
    resp->ack = true;
    Message msg;
    msg.from = from;
    msg.to = 0;
    msg.type = kKvWriteResp;
    msg.payload = std::move(resp);
    kv().HandleMessage(msg);
  }

  ClusterConfig config_;
  Simulator sim_{1};
  NetworkModel network_{&sim_, NetworkModel::Config{}, /*seed=*/7};
  SimTransport transport_{&network_};
  InlineStage stage_;
  NullHost host_;
  std::optional<ProtocolNode> core_;
  std::vector<std::optional<KvOutcome>> outcomes_;
};

TEST_F(CoordinatorTest, OwnReplicaFinishesTheAttemptInsideItsSendLoop) {
  Build(KvConsistency::kOne);
  Write(0);
  // The local replica acked synchronously, which finished the attempt and
  // concluded the request before Write returned; the remote sends after it
  // still went out from the loop's own copy of the targets.
  ASSERT_TRUE(outcomes_[0].has_value());
  EXPECT_EQ(*outcomes_[0], KvOutcome::kOk);
  EXPECT_EQ(kv().inflight_attempts(), 0u);
  EXPECT_EQ(network_.messages_sent(), 2u);
  // A second request reuses the concluded one's state.
  Write(1);
  ASSERT_TRUE(outcomes_[1].has_value());
  EXPECT_EQ(*outcomes_[1], KvOutcome::kOk);
  EXPECT_EQ(kv().stats().ok, 2);
}

TEST_F(CoordinatorTest, SilentReplicasTimeTheAttemptOut) {
  Build(KvConsistency::kQuorum);
  Write(0);
  EXPECT_FALSE(outcomes_[0].has_value());  // one ack of the two needed
  EXPECT_EQ(kv().inflight_attempts(), 1u);
  sim_.RunUntilIdle();  // the 2 s attempt timeout fires
  ASSERT_TRUE(outcomes_[0].has_value());
  EXPECT_EQ(*outcomes_[0], KvOutcome::kTimeout);
  EXPECT_EQ(kv().inflight_attempts(), 0u);
  EXPECT_EQ(kv().stats().timeout, 1);
  // The ack that arrives after the timeout finds nothing.
  Respond(1, 1);
  EXPECT_EQ(kv().stats().ok, 0);
}

TEST_F(CoordinatorTest, StaleFutureAndFireAndForgetAcksFindNothing) {
  Build(KvConsistency::kQuorum);
  Write(0);  // op 1
  Write(1);  // op 2
  Write(2);  // op 3
  Respond(1, 2);
  ASSERT_TRUE(outcomes_[1].has_value());
  EXPECT_EQ(*outcomes_[1], KvOutcome::kOk);
  Respond(2, 2);  // op 2 already finished, with op 1 still live: a stale id
  Respond(1, 0);  // a fire-and-forget replica write's ack
  Respond(1, 4);  // an id not issued yet
  EXPECT_FALSE(outcomes_[0].has_value());
  EXPECT_FALSE(outcomes_[2].has_value());
  EXPECT_EQ(kv().inflight_attempts(), 2u);
  EXPECT_EQ(kv().stats().ok, 1);
  Respond(2, 1);
  Respond(1, 1);  // op 1 finished too: stale below the live window
  Respond(2, 3);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(outcomes_[i].has_value()) << i;
    EXPECT_EQ(*outcomes_[i], KvOutcome::kOk) << i;
  }
  EXPECT_EQ(kv().inflight_attempts(), 0u);
  sim_.RunUntilIdle();  // cancelled timeouts stay cancelled
  EXPECT_EQ(kv().stats().ok, 3);
  EXPECT_EQ(kv().stats().timeout, 0);
}

TEST_F(CoordinatorTest, LiveAttemptsOutgrowTheRingAndFinishOutOfOrder) {
  Build(KvConsistency::kQuorum);
  constexpr size_t kOps = 40;  // ops 1..40, all live at once
  for (size_t i = 0; i < kOps; ++i) Write(i);
  EXPECT_EQ(kv().inflight_attempts(), kOps);
  // Acks in a scrambled order, the oldest attempt last.
  for (size_t step = 1; step < kOps; ++step) {
    const uint64_t op_id = 1 + (step * 17) % kOps;  // 2..40, each once
    Respond(1 + static_cast<NodeId>(step % 2), op_id);
    ASSERT_TRUE(outcomes_[op_id - 1].has_value()) << op_id;
    EXPECT_EQ(*outcomes_[op_id - 1], KvOutcome::kOk);
  }
  EXPECT_EQ(kv().inflight_attempts(), 1u);
  Respond(2, 1);
  for (size_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(outcomes_[i].has_value()) << i;
    EXPECT_EQ(*outcomes_[i], KvOutcome::kOk) << i;
  }
  EXPECT_EQ(kv().inflight_attempts(), 0u);
  EXPECT_EQ(kv().stats().ok, static_cast<int64_t>(kOps));
}

}  // namespace
}  // namespace scalecheck
