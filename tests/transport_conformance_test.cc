// Transport + Clock conformance suite, instantiated against BOTH carriers:
//
//   sim : SimTransport over NetworkModel, the Simulator as the Clock, with
//         roundtrip_codec on — every payload passes through the shared wire
//         codec exactly as TCP frames would.
//   tcp : TcpTransport/RealClock — real localhost sockets, real timers.
//
// The protocol layer is written against the seam's contract; this suite IS
// that contract: per-pair FIFO delivery, no delivery after unregister, no
// cross-talk between handlers, timer fire/cancel semantics.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/gossip/messages.h"
#include "src/net/real_clock.h"
#include "src/net/tcp_transport.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/transport/sim_substrate.h"
#include "src/transport/substrate.h"

namespace scalecheck {
namespace {

// A carrier under test. RunUntil lets background machinery (sim events or
// real threads) make progress until `pred` holds or the carrier's patience
// runs out; it returns the final pred() value.
class Carrier {
 public:
  virtual ~Carrier() = default;
  virtual Transport* transport() = 0;
  virtual Clock* clock() = 0;
  virtual bool RunUntil(std::function<bool()> pred) = 0;
  // Lets the carrier run for a short, bounded window — used to give an
  // INCORRECT behavior (late delivery, late timer fire) a chance to happen
  // before asserting it did not.
  virtual void WaitABit() = 0;
  // The clock a PeriodicClockTimer must be built on, plus the mutex callers
  // must hold around Start/Stop and any state the timer fn touches. This is
  // the documented contract: PeriodicClockTimer is not internally
  // thread-safe, so multi-threaded carriers serialize via SerializedClock
  // (exactly what net::RealNode does). The sim leg is single-threaded, so
  // there the mutex is just along for the ride.
  virtual Clock* timer_clock() = 0;
  virtual std::mutex* timer_mu() = 0;
};

class SimCarrier : public Carrier {
 public:
  SimCarrier()
      : sim_(/*seed=*/1234),
        network_(&sim_, NetworkModel::Config{}, /*seed=*/1234),
        transport_(&network_, SimTransport::Options{.roundtrip_codec = true}) {}

  Transport* transport() override { return &transport_; }
  Clock* clock() override { return &sim_; }
  bool RunUntil(std::function<bool()> pred) override {
    const VirtualTime deadline = sim_.Now() + VirtualDuration::Seconds(10);
    while (!pred() && sim_.Now() < deadline) {
      sim_.Run(sim_.Now() + VirtualDuration::Millis(1));
    }
    return pred();
  }
  void WaitABit() override {
    sim_.Run(sim_.Now() + VirtualDuration::Millis(200));
  }
  Clock* timer_clock() override { return &sim_; }
  std::mutex* timer_mu() override { return &timer_mu_; }

 private:
  Simulator sim_;
  NetworkModel network_;
  SimTransport transport_;
  std::mutex timer_mu_;
};

class TcpCarrier : public Carrier {
 public:
  Transport* transport() override { return &transport_; }
  Clock* clock() override { return &clock_; }
  bool RunUntil(std::function<bool()> pred) override {
    for (int spins = 0; spins < 2000; ++spins) {  // up to ~10s wall
      if (pred()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
  }
  void WaitABit() override {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  Clock* timer_clock() override { return &serialized_; }
  std::mutex* timer_mu() override { return &timer_mu_; }

 private:
  TcpTransport transport_;
  RealClock clock_;
  std::mutex timer_mu_;
  SerializedClock serialized_{&clock_, &timer_mu_};
};

std::unique_ptr<Carrier> MakeCarrier(const std::string& name) {
  if (name == "sim") {
    return std::make_unique<SimCarrier>();
  }
  return std::make_unique<TcpCarrier>();
}

// A tagged gossip SYN: the digest generation carries the test's sequence
// marker through encode/decode.
std::shared_ptr<const Payload> Tagged(int64_t marker) {
  auto syn = std::make_shared<SynPayload>();
  syn->digests = {{.endpoint = 1, .generation = marker, .max_version = 0}};
  return syn;
}

int64_t MarkerOf(const Message& msg) {
  auto* syn = static_cast<const SynPayload*>(msg.payload.get());
  return syn->digests.empty() ? -1 : syn->digests[0].generation;
}

// Thread-safe capture for handler invocations (TCP handlers run on reader
// threads; the sim is single-threaded but the lock is harmless there).
struct Inbox {
  std::mutex mu;
  std::vector<Message> received;

  Transport::Handler HandlerFn() {
    return [this](const Message& msg) {
      std::lock_guard<std::mutex> lock(mu);
      received.push_back(msg);
    };
  }
  size_t Size() {
    std::lock_guard<std::mutex> lock(mu);
    return received.size();
  }
  Message At(size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    return received[i];
  }
};

class TransportConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(TransportConformance, DeliversWithHeaderAndPayloadIntact) {
  auto carrier = MakeCarrier(GetParam());
  Inbox a, b;
  carrier->transport()->RegisterNode(1, a.HandlerFn());
  carrier->transport()->RegisterNode(2, b.HandlerFn());
  uint64_t id = carrier->transport()->Send(1, 2, kGossipSyn, Tagged(777));
  EXPECT_NE(id, 0u);
  ASSERT_TRUE(carrier->RunUntil([&] { return b.Size() >= 1; }));
  Message got = b.At(0);
  EXPECT_EQ(got.from, 1);
  EXPECT_EQ(got.to, 2);
  EXPECT_EQ(got.type, kGossipSyn);
  EXPECT_EQ(MarkerOf(got), 777);
  EXPECT_EQ(a.Size(), 0u);  // sender got nothing back
  carrier->transport()->UnregisterNode(1);
  carrier->transport()->UnregisterNode(2);
}

TEST_P(TransportConformance, PerPairDeliveryIsFifo) {
  auto carrier = MakeCarrier(GetParam());
  Inbox b;
  carrier->transport()->RegisterNode(1, Transport::Handler([](const Message&) {}));
  carrier->transport()->RegisterNode(2, b.HandlerFn());
  carrier->transport()->RegisterNode(3, Transport::Handler([](const Message&) {}));
  constexpr int kCount = 40;
  for (int i = 0; i < kCount; ++i) {
    carrier->transport()->Send(1, 2, kGossipSyn, Tagged(i));
    // Interleave traffic from another sender; it must not reorder 1's stream.
    carrier->transport()->Send(3, 2, kGossipSyn, Tagged(1000 + i));
  }
  ASSERT_TRUE(carrier->RunUntil([&] { return b.Size() >= 2 * kCount; }));
  int64_t last_from_1 = -1, last_from_3 = 999;
  for (size_t i = 0; i < b.Size(); ++i) {
    Message msg = b.At(i);
    int64_t marker = MarkerOf(msg);
    if (msg.from == 1) {
      EXPECT_EQ(marker, last_from_1 + 1) << "sender 1 stream reordered";
      last_from_1 = marker;
    } else {
      EXPECT_EQ(msg.from, 3);
      EXPECT_EQ(marker, last_from_3 + 1) << "sender 3 stream reordered";
      last_from_3 = marker;
    }
  }
  EXPECT_EQ(last_from_1, kCount - 1);
  EXPECT_EQ(last_from_3, 999 + kCount);
  carrier->transport()->UnregisterNode(1);
  carrier->transport()->UnregisterNode(2);
  carrier->transport()->UnregisterNode(3);
}

TEST_P(TransportConformance, NoDeliveryAfterUnregister) {
  auto carrier = MakeCarrier(GetParam());
  Inbox b;
  carrier->transport()->RegisterNode(1, Transport::Handler([](const Message&) {}));
  carrier->transport()->RegisterNode(2, b.HandlerFn());
  carrier->transport()->UnregisterNode(2);
  carrier->transport()->Send(1, 2, kGossipSyn, Tagged(1));
  carrier->WaitABit();  // give a wrong delivery the chance to happen
  EXPECT_EQ(b.Size(), 0u);
  carrier->transport()->UnregisterNode(1);
}

TEST_P(TransportConformance, NoCrossTalkBetweenHandlers) {
  auto carrier = MakeCarrier(GetParam());
  Inbox b, c;
  carrier->transport()->RegisterNode(1, Transport::Handler([](const Message&) {}));
  carrier->transport()->RegisterNode(2, b.HandlerFn());
  carrier->transport()->RegisterNode(3, c.HandlerFn());
  for (int i = 0; i < 5; ++i) {
    carrier->transport()->Send(1, 2, kGossipSyn, Tagged(i));
  }
  ASSERT_TRUE(carrier->RunUntil([&] { return b.Size() >= 5; }));
  EXPECT_EQ(c.Size(), 0u) << "node 3 saw traffic addressed to node 2";
  for (size_t i = 0; i < b.Size(); ++i) {
    EXPECT_EQ(b.At(i).to, 2);
  }
  carrier->transport()->UnregisterNode(1);
  carrier->transport()->UnregisterNode(2);
  carrier->transport()->UnregisterNode(3);
}

// Delta-encoded digest sections must survive BOTH carriers bit-exactly:
// the sim leg round-trips them through the shared wire codec
// (roundtrip_codec=true) and the tcp leg through real socket frames. Covers
// the compression-unfriendly cases too (unsorted ids, negative deltas,
// extreme generations) so carrier behavior cannot diverge on them.
TEST_P(TransportConformance, DeltaDigestSectionsSurviveCarrier) {
  auto carrier = MakeCarrier(GetParam());
  Inbox a, b;
  carrier->transport()->RegisterNode(1, a.HandlerFn());
  carrier->transport()->RegisterNode(2, b.HandlerFn());

  auto syn = std::make_shared<SynPayload>();
  for (NodeId ep = 0; ep < 64; ++ep) {  // dense sorted steady-state shape
    syn->digests.push_back(
        {.endpoint = ep, .generation = 1754000000, .max_version = 4000 + ep});
  }
  // Adversarial tail: unsorted, extreme, and zero entries.
  syn->digests.push_back({.endpoint = 3, .generation = INT64_MAX, .max_version = 0});
  syn->digests.push_back({.endpoint = 2047, .generation = 0, .max_version = 1});
  const std::vector<GossipDigest> sent_digests = syn->digests;
  carrier->transport()->Send(1, 2, kGossipSyn, syn);

  auto ack = std::make_shared<AckPayload>();
  ack->requests = sent_digests;  // ACK request section uses the same codec
  carrier->transport()->Send(2, 1, kGossipAck, ack);

  ASSERT_TRUE(carrier->RunUntil([&] { return b.Size() >= 1 && a.Size() >= 1; }));
  auto* got_syn = static_cast<const SynPayload*>(b.At(0).payload.get());
  auto* got_ack = static_cast<const AckPayload*>(a.At(0).payload.get());
  for (const std::vector<GossipDigest>* got :
       {&got_syn->digests, &got_ack->requests}) {
    ASSERT_EQ(got->size(), sent_digests.size());
    for (size_t i = 0; i < sent_digests.size(); ++i) {
      EXPECT_EQ((*got)[i].endpoint, sent_digests[i].endpoint) << "entry " << i;
      EXPECT_EQ((*got)[i].generation, sent_digests[i].generation) << "entry " << i;
      EXPECT_EQ((*got)[i].max_version, sent_digests[i].max_version) << "entry " << i;
    }
  }
  carrier->transport()->UnregisterNode(1);
  carrier->transport()->UnregisterNode(2);
}

TEST_P(TransportConformance, TimerFiresOnceAndCancelWorks) {
  auto carrier = MakeCarrier(GetParam());
  std::mutex mu;
  int fired = 0, cancelled_fired = 0;
  TimerId t1 = carrier->clock()->ScheduleAfter(
      VirtualDuration::Millis(10), [&] {
        std::lock_guard<std::mutex> lock(mu);
        ++fired;
      });
  TimerId t2 = carrier->clock()->ScheduleAfter(
      VirtualDuration::Millis(10), [&] {
        std::lock_guard<std::mutex> lock(mu);
        ++cancelled_fired;
      });
  EXPECT_NE(t1, kInvalidTimer);
  EXPECT_NE(t2, kInvalidTimer);
  EXPECT_TRUE(carrier->clock()->CancelTimer(t2));
  ASSERT_TRUE(carrier->RunUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return fired >= 1;
  }));
  carrier->WaitABit();  // let an (incorrect) late firing of t2 happen
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(cancelled_fired, 0);
  // A timer that already fired cannot be cancelled.
  EXPECT_FALSE(carrier->clock()->CancelTimer(t1));
}

TEST_P(TransportConformance, PeriodicTimerFiresRepeatedlyAndStops) {
  auto carrier = MakeCarrier(GetParam());
  std::mutex* mu = carrier->timer_mu();
  // The fn runs with *mu already held on the TCP leg (SerializedClock wraps
  // every callback), and single-threaded on the sim leg — it must NOT lock.
  int fires = 0;
  PeriodicClockTimer timer(carrier->timer_clock(), VirtualDuration::Millis(5),
                           [&] { ++fires; });
  {
    std::lock_guard<std::mutex> lock(*mu);
    timer.Start(VirtualDuration::Millis(5));
  }
  ASSERT_TRUE(carrier->RunUntil([&] {
    std::lock_guard<std::mutex> lock(*mu);
    return fires >= 3;
  }));
  int at_stop;
  {
    std::lock_guard<std::mutex> lock(*mu);
    timer.Stop();
    at_stop = fires;
  }
  carrier->WaitABit();  // wait out many periods
  std::lock_guard<std::mutex> lock(*mu);
  EXPECT_LE(fires, at_stop + 1);
}

INSTANTIATE_TEST_SUITE_P(Carriers, TransportConformance,
                         ::testing::Values("sim", "tcp"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           return param_info.param;
                         });

}  // namespace
}  // namespace scalecheck
