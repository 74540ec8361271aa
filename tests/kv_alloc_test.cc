// The simulated KV data path allocates almost nothing per client op once
// warm: the replica jobs' closures ride inline in their Job steps, one
// pooled request goes to every replica of an attempt, replicas answer with
// pooled responses, the coordinator's attempts and client requests live in
// reused slots, and its replica lists in reused buffers. What is left is the
// data itself: a replica's storage engine keeps its own copy of a written
// value and hands out a fresh copy on a read. This binary replaces the
// global operator new with a counting one (each test file links into its own
// binary, so the replacement stays here).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/protocol_node.h"
#include "src/sim/machine.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/sim/thread.h"
#include "src/transport/sim_substrate.h"

namespace {
std::atomic<uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace scalecheck {
namespace {

// Forwards to a SimStage, counting the closures that had to be boxed.
class InlineCheckingStage final : public Stage {
 public:
  explicit InlineCheckingStage(Stage* base) : base_(base) {}

  void Submit(const char* label, OpFn op, DoneFn done) override {
    ++submitted_;
    if (!op.is_inline() || !done.is_inline()) {
      ++boxed_;
      boxed_labels_.push_back(label);
    }
    base_->Submit(label, std::move(op), std::move(done));
  }

  uint64_t submitted() const { return submitted_; }
  uint64_t boxed() const { return boxed_; }
  const std::vector<const char*>& boxed_labels() const { return boxed_labels_; }

 private:
  Stage* base_;
  uint64_t submitted_ = 0;
  uint64_t boxed_ = 0;
  std::vector<const char*> boxed_labels_;
};

class NullHost final : public ProtocolNode::Host {
 public:
  void OnConviction(NodeId /*ep*/, VirtualTime /*now*/) override {}
  void OnRescue(NodeId /*ep*/, bool /*restarted*/) override {}
  void OnStatusTransition(NodeId /*ep*/, StatusKind /*new_status*/) override {}
  void OnPendingSetChanged() override {}
  void RunCalculator() override {}
};

// Three settled nodes on their own machines, RF 3 (every node replicates
// every key), QUORUM, WAL on, sharing one set of payload pools. Node 0
// coordinates a write and then a read of the same key every 2 ms.
class KvRoundTrips {
 public:
  static constexpr int kNodes = 3;
  static constexpr uint64_t kKeys = 16;
  static constexpr size_t kValueBytes = 128;
  // One group commit acks 250 ms of writes at once: 125 writes times three
  // replicas here. The pools park that burst for the next commit's acks.
  static constexpr size_t kParked = 512;

  KvRoundTrips() : pools_(std::make_unique<KvPayloadPools>(kParked)) {
    config_.kv.enabled = true;
    config_.kv.wal = true;
    config_.kv.consistency = KvConsistency::kQuorum;
    std::map<NodeId, std::vector<Token>> members;
    for (NodeId id = 0; id < kNodes; ++id) {
      members[id] = GenerateTokens(id, config_.vnodes_per_node, config_.seed);
    }
    for (NodeId id = 0; id < kNodes; ++id) {
      machines_.push_back(std::make_unique<Machine>(&sim_, id, MachineSpec{}));
      threads_.push_back(std::make_unique<SimThread>(&sim_, machines_.back().get(),
                                                     "kv-stage-" + std::to_string(id)));
      sim_stages_.push_back(std::make_unique<SimStage>(threads_.back().get()));
      stages_.push_back(std::make_unique<InlineCheckingStage>(sim_stages_.back().get()));
      cores_.push_back(std::make_unique<ProtocolNode>(
          id, /*seed=*/100 + id,
          ProtocolNode::Deps{
              .config = &config_,
              .transport = &transport_,
              .clock = &sim_,
              .host = &host_,
              .kv_stage = stages_.back().get(),
              .kv_charge = nullptr,
              .kv_history = nullptr,
              .kv_payloads = pools_.get(),
          }));
      ProtocolNode* core = cores_.back().get();
      core->PrimeSettled(members);
      network_.RegisterNode(id, [core](const Message& msg) { core->kv()->HandleMessage(msg); });
    }
  }

  // Builds the values the next Run writes.
  void MakeValues(int pairs) {
    values_.clear();
    for (int i = 0; i < pairs; ++i) {
      values_.emplace_back(kValueBytes, static_cast<char>('a' + i % 26));
    }
    next_value_ = 0;
  }

  // Issues write-then-read round trips for the values MakeValues built and,
  // unless `until` stops the simulation first, runs them to completion.
  void Run(VirtualTime until = VirtualTime::Max()) {
    pairs_left_ = static_cast<int>(values_.size());
    Tick();
    sim_.Run(until);
  }

  int64_t ok() const { return ok_; }
  int64_t failed() const { return failed_; }
  uint64_t boxed() const {
    uint64_t total = 0;
    for (const auto& stage : stages_) total += stage->boxed();
    return total;
  }
  uint64_t submitted() const {
    uint64_t total = 0;
    for (const auto& stage : stages_) total += stage->submitted();
    return total;
  }
  std::string boxed_labels() const {
    std::string out;
    for (const auto& stage : stages_) {
      for (const char* label : stage->boxed_labels()) out += std::string(label) + " ";
    }
    return out;
  }
  const KvPayloadPools& pools() const { return *pools_; }
  // Drops the pools while payloads are still queued in the simulator and
  // the stage threads, as a cluster's teardown does.
  void DropPools() { pools_.reset(); }

 private:
  void Tick() {
    if (pairs_left_ == 0) {
      return;
    }
    --pairs_left_;
    const uint64_t key = next_key_++ % kKeys;
    KvService* kv = cores_[0]->kv();
    kv->Write(key, std::move(values_[next_value_++]), [this](KvOutcome outcome, std::string) {
      Count(outcome);
    });
    sim_.ScheduleAfter(VirtualDuration::Millis(1), [this, kv, key] {
      kv->Read(key, [this](KvOutcome outcome, std::string value) {
        Count(outcome);
        EXPECT_EQ(value.size(), kValueBytes);
      });
    });
    sim_.ScheduleAfter(VirtualDuration::Millis(2), [this] { Tick(); });
  }

  void Count(KvOutcome outcome) { (outcome == KvOutcome::kOk ? ok_ : failed_) += 1; }

  ClusterConfig config_;
  Simulator sim_{7};
  NetworkModel network_{&sim_, NetworkModel::Config{}, /*seed=*/11};
  SimTransport transport_{&network_};
  NullHost host_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::vector<std::unique_ptr<SimThread>> threads_;
  std::vector<std::unique_ptr<SimStage>> sim_stages_;
  std::vector<std::unique_ptr<InlineCheckingStage>> stages_;
  // Declared after the simulator and the stage threads, so it is destroyed
  // before the payloads they still hold at teardown.
  std::unique_ptr<KvPayloadPools> pools_;
  std::vector<std::unique_ptr<ProtocolNode>> cores_;
  std::vector<std::string> values_;
  size_t next_value_ = 0;
  int pairs_left_ = 0;
  uint64_t next_key_ = 0;
  int64_t ok_ = 0;
  int64_t failed_ = 0;
};

TEST(KvAlloc, WarmQuorumRoundTripsAllocateOnlyTheirData) {
  constexpr int kPairs = 2'000;
  KvRoundTrips trips;
  trips.MakeValues(kPairs);
  trips.Run();  // warm-up: grows the pools, slots, buffers and logs
  ASSERT_EQ(trips.ok(), 2 * kPairs);

  trips.MakeValues(kPairs);
  const uint64_t before = g_news.load();
  trips.Run();
  const uint64_t allocs = g_news.load() - before;
  ASSERT_EQ(trips.ok(), 4 * kPairs);
  EXPECT_EQ(trips.failed(), 0);
  // Per op: a write's three replicas each copy the value into storage, and
  // a read's three replicas each get a copy back, one of which the
  // coordinator keeps as the winner (3.5 on average). The rest — the WAL's
  // byte log doubling — rounds to nothing.
  constexpr uint64_t kMaxPerOp = 4;
  EXPECT_LE(allocs, kMaxPerOp * 2 * kPairs) << allocs << " allocations for " << 2 * kPairs
                                            << " ops";
  EXPECT_GE(trips.pools().request.reuses(), static_cast<uint64_t>(2 * kPairs));
  EXPECT_GE(trips.pools().response.reuses(), static_cast<uint64_t>(2 * kPairs));
}

TEST(KvAlloc, EveryHotPathStageClosureStaysInline) {
  KvRoundTrips trips;
  trips.MakeValues(200);
  trips.Run();
  ASSERT_EQ(trips.ok(), 400);
  // Six replica jobs per round trip, each a Compute and a Run step.
  EXPECT_GE(trips.submitted(), 6u * 200u);
  EXPECT_EQ(trips.boxed(), 0u) << trips.boxed_labels();
}

TEST(KvAlloc, PayloadsQueuedAtTeardownOutliveTheirPools) {
  KvRoundTrips trips;
  // Stop mid-stream: requests and acks are queued in the network and in
  // the stage threads, and acks wait for the next group commit.
  trips.MakeValues(400);
  trips.Run(VirtualTime::Zero() + VirtualDuration::Millis(401));
  EXPECT_GT(trips.ok(), 0);
  EXPECT_LT(trips.ok(), 800);
  trips.DropPools();
  // ~KvRoundTrips releases the queued payloads into their dropped pools'
  // state, which the sanitizer build checks is still alive.
}

}  // namespace
}  // namespace scalecheck
