#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/gossip/messages.h"
#include "src/sim/network.h"
#include "src/transport/sim_substrate.h"

namespace scalecheck {
namespace {

struct TestPayload : public Payload {
  explicit TestPayload(int v) : value(v) {}
  int value;
  size_t SizeBytes() const override { return 100; }
};

class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture() : sim_(1) {}

  NetworkModel MakeNet(NetworkModel::Config cfg = {}) {
    return NetworkModel(&sim_, cfg, 99);
  }

  Simulator sim_;
};

TEST_F(NetworkFixture, DeliversToRegisteredHandler) {
  NetworkModel net = MakeNet();
  std::vector<int> received;
  net.RegisterNode(2, [&](const Message& msg) {
    received.push_back(std::static_pointer_cast<const TestPayload>(msg.payload)->value);
  });
  net.Send(1, 2, 7, std::make_shared<TestPayload>(41));
  sim_.RunUntilIdle();
  EXPECT_EQ(received, std::vector<int>{41});
  EXPECT_EQ(net.messages_delivered(), 1u);
  EXPECT_EQ(net.bytes_sent(), 100u);
}

TEST_F(NetworkFixture, UnregisteredReceiverDrops) {
  NetworkModel net = MakeNet();
  net.Send(1, 2, 7, std::make_shared<TestPayload>(1));
  sim_.RunUntilIdle();
  EXPECT_EQ(net.messages_delivered(), 0u);
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST_F(NetworkFixture, NegativeIdsDropAtSend) {
  NetworkModel net = MakeNet();
  int received = 0;
  net.RegisterNode(2, [&](const Message&) { ++received; });
  EXPECT_EQ(net.Send(2, kInvalidNode, 7, std::make_shared<TestPayload>(1)), 0u);
  EXPECT_EQ(net.Send(kInvalidNode, 2, 7, std::make_shared<TestPayload>(1)), 0u);
  sim_.RunUntilIdle();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.messages_dropped(), 2u);

  // The same through a codec-round-tripping SimTransport: the codec rejects
  // negative ids, so those sends skip the round trip and the network counts
  // them exactly as above.
  NetworkModel codec_net = MakeNet();
  SimTransport transport(&codec_net, SimTransport::Options{.roundtrip_codec = true});
  transport.RegisterNode(2, [&](const Message&) { ++received; });
  EXPECT_EQ(transport.Send(2, kInvalidNode, kGossipSyn, std::make_shared<SynPayload>()), 0u);
  EXPECT_EQ(transport.Send(kInvalidNode, 2, kGossipSyn, std::make_shared<SynPayload>()), 0u);
  EXPECT_NE(transport.Send(1, 2, kGossipSyn, std::make_shared<SynPayload>()), 0u);
  sim_.RunUntilIdle();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(codec_net.messages_sent(), 3u);
  EXPECT_EQ(codec_net.messages_dropped(), 2u);
  EXPECT_EQ(transport.codec_roundtrips(), 1u);
}

// A link carries any number of message types: every type shares the
// pair's one FIFO, whatever its value.
TEST_F(NetworkFixture, ManyMessageTypesShareOneLinkInFifoOrder) {
  NetworkModel::Config cfg;
  cfg.jitter_mean = VirtualDuration::Millis(20);
  NetworkModel net = MakeNet(cfg);
  std::vector<int> received_types;
  std::vector<int> received_values;
  net.RegisterNode(1, [&](const Message& msg) {
    received_types.push_back(msg.type);
    received_values.push_back(
        std::static_pointer_cast<const TestPayload>(msg.payload)->value);
  });
  std::vector<int> types;
  for (int i = 0; i < 32; ++i) {
    types.push_back(i * 7 + 1);  // 32 distinct, sparse types
  }
  for (int i = 0; i < 32; ++i) {
    net.Send(0, 1, types[static_cast<size_t>(i)], std::make_shared<TestPayload>(i));
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(received_types, types);
  std::vector<int> want_values(32);
  for (int i = 0; i < 32; ++i) want_values[static_cast<size_t>(i)] = i;
  EXPECT_EQ(received_values, want_values);
}

TEST_F(NetworkFixture, UnregisterStopsDelivery) {
  NetworkModel net = MakeNet();
  int received = 0;
  net.RegisterNode(2, [&](const Message&) { ++received; });
  net.Send(1, 2, 7, std::make_shared<TestPayload>(1));
  net.UnregisterNode(2);  // crash before delivery
  sim_.RunUntilIdle();
  EXPECT_EQ(received, 0);
}

TEST_F(NetworkFixture, PerPairFifoDespiteJitter) {
  NetworkModel::Config cfg;
  cfg.jitter_mean = VirtualDuration::Millis(50);  // heavy jitter
  NetworkModel net = MakeNet(cfg);
  std::vector<int> received;
  net.RegisterNode(2, [&](const Message& msg) {
    received.push_back(std::static_pointer_cast<const TestPayload>(msg.payload)->value);
  });
  for (int i = 0; i < 50; ++i) {
    net.Send(1, 2, 7, std::make_shared<TestPayload>(i));
  }
  sim_.RunUntilIdle();
  ASSERT_EQ(received.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(received[static_cast<size_t>(i)], i);
  }
}

TEST_F(NetworkFixture, LossDropsApproximatelyTheConfiguredFraction) {
  NetworkModel::Config cfg;
  cfg.loss_probability = 0.2;
  NetworkModel net = MakeNet(cfg);
  net.RegisterNode(2, [](const Message&) {});
  for (int i = 0; i < 5000; ++i) {
    net.Send(1, 2, 7, std::make_shared<TestPayload>(0));
  }
  sim_.RunUntilIdle();
  double drop_rate =
      static_cast<double>(net.messages_dropped()) / static_cast<double>(net.messages_sent());
  EXPECT_NEAR(drop_rate, 0.2, 0.03);
}

TEST_F(NetworkFixture, FifoPreservedAcrossLatencySpikeHeal) {
  // A link-degrade fault adds 100ms to in-fault sends. Messages sent right
  // after the heal would beat the delayed ones to the receiver if the
  // monotone per-pair clamp did not hold deliveries back.
  NetworkModel::Config cfg;
  cfg.jitter_mean = VirtualDuration::Millis(5);
  NetworkModel net = MakeNet(cfg);
  NetworkModel::LinkFault fault;
  net.set_link_filter([&fault](NodeId, NodeId) { return fault; });
  std::vector<int> received;
  net.RegisterNode(2, [&](const Message& msg) {
    received.push_back(std::static_pointer_cast<const TestPayload>(msg.payload)->value);
  });

  fault.extra_latency = VirtualDuration::Millis(100);
  for (int i = 0; i < 20; ++i) {
    net.Send(1, 2, 7, std::make_shared<TestPayload>(i));
  }
  fault.extra_latency = VirtualDuration::Zero();  // heal
  for (int i = 20; i < 40; ++i) {
    net.Send(1, 2, 7, std::make_shared<TestPayload>(i));
  }
  sim_.RunUntilIdle();
  ASSERT_EQ(received.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(received[static_cast<size_t>(i)], i);
  }
}

TEST_F(NetworkFixture, FifoPreservedAcrossPartitionToggle) {
  NetworkModel::Config cfg;
  cfg.jitter_mean = VirtualDuration::Millis(20);
  NetworkModel net = MakeNet(cfg);
  NetworkModel::LinkFault fault;
  net.set_link_filter([&fault](NodeId, NodeId) { return fault; });
  std::vector<int> received;
  net.RegisterNode(2, [&](const Message& msg) {
    received.push_back(std::static_pointer_cast<const TestPayload>(msg.payload)->value);
  });

  for (int i = 0; i < 10; ++i) {
    net.Send(1, 2, 7, std::make_shared<TestPayload>(i));
  }
  fault.blocked = true;  // hard partition: sends are dropped, not delayed
  for (int i = 10; i < 20; ++i) {
    net.Send(1, 2, 7, std::make_shared<TestPayload>(i));
  }
  fault.blocked = false;  // heal
  for (int i = 20; i < 30; ++i) {
    net.Send(1, 2, 7, std::make_shared<TestPayload>(i));
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(net.messages_blocked(), 10u);
  ASSERT_EQ(received.size(), 20u);
  std::vector<int> expected;
  for (int i = 0; i < 10; ++i) expected.push_back(i);
  for (int i = 20; i < 30; ++i) expected.push_back(i);
  EXPECT_EQ(received, expected);
}

TEST_F(NetworkFixture, BlockedSendConsumesNoRandomness) {
  // Partition drops are deterministic: a blocked Send must not advance the
  // RNG, so the post-heal message stream is byte-identical to a run where
  // the blocked sends never happened.
  auto run = [this](int blocked_sends) {
    NetworkModel::Config cfg;
    cfg.jitter_mean = VirtualDuration::Millis(10);
    NetworkModel net = MakeNet(cfg);
    NetworkModel::LinkFault fault;
    net.set_link_filter([&fault](NodeId, NodeId) { return fault; });
    VirtualTime start = sim_.Now();  // the fixture sim advances across runs
    std::vector<double> arrivals;
    net.RegisterNode(2, [&, start](const Message&) {
      arrivals.push_back((sim_.Now() - start).seconds());
    });
    fault.blocked = true;
    for (int i = 0; i < blocked_sends; ++i) {
      net.Send(1, 2, 7, std::make_shared<TestPayload>(i));
    }
    fault.blocked = false;
    for (int i = 0; i < 10; ++i) {
      net.Send(1, 2, 7, std::make_shared<TestPayload>(i));
    }
    sim_.RunUntilIdle();
    return arrivals;
  };
  std::vector<double> with_blocked = run(25);
  std::vector<double> without_blocked = run(0);
  EXPECT_EQ(with_blocked, without_blocked);
}

TEST_F(NetworkFixture, ExtraLossAddsToConfiguredLoss) {
  NetworkModel::Config cfg;
  cfg.loss_probability = 0.1;
  NetworkModel net = MakeNet(cfg);
  NetworkModel::LinkFault fault;
  fault.extra_loss = 0.15;
  net.set_link_filter([&fault](NodeId, NodeId) { return fault; });
  net.RegisterNode(2, [](const Message&) {});
  for (int i = 0; i < 5000; ++i) {
    net.Send(1, 2, 7, std::make_shared<TestPayload>(0));
  }
  sim_.RunUntilIdle();
  double drop_rate =
      static_cast<double>(net.messages_dropped()) / static_cast<double>(net.messages_sent());
  EXPECT_NEAR(drop_rate, 0.25, 0.03);
  EXPECT_EQ(net.messages_blocked(), 0u);  // probabilistic loss is not "blocked"
}

TEST_F(NetworkFixture, SameMachineUsesLoopbackLatency) {
  NetworkModel::Config cfg;
  cfg.loopback_latency = VirtualDuration::Micros(10);
  cfg.base_latency = VirtualDuration::Millis(10);
  cfg.jitter_mean = VirtualDuration::Nanos(1);
  NetworkModel net = MakeNet(cfg);
  net.set_same_machine_fn([](NodeId a, NodeId b) { return a == 1 && b == 2; });
  std::vector<double> arrival;
  net.RegisterNode(2, [&](const Message&) { arrival.push_back(sim_.Now().seconds()); });
  net.RegisterNode(3, [&](const Message&) { arrival.push_back(sim_.Now().seconds()); });
  net.Send(1, 2, 7, std::make_shared<TestPayload>(0));  // local
  net.Send(1, 3, 7, std::make_shared<TestPayload>(0));  // remote
  sim_.RunUntilIdle();
  ASSERT_EQ(arrival.size(), 2u);
  EXPECT_LT(arrival[0], 1e-4);   // ~10us
  EXPECT_GT(arrival[1], 9e-3);   // ~10ms
}

// ---------------------------------------------------------------------------
// Per-link state for ids the network learns late or sparsely.

struct Arrival {
  NodeId from;
  int type;
  int value;
};

NetworkModel::Handler RecordInto(std::vector<Arrival>* out) {
  return [out](const Message& msg) {
    out->push_back(Arrival{msg.from, msg.type,
                           std::static_pointer_cast<const TestPayload>(msg.payload)->value});
  };
}

TEST_F(NetworkFixture, FifoHoldsForNodesRegisteredLater) {
  NetworkModel::Config cfg;
  cfg.jitter_mean = VirtualDuration::Millis(30);
  NetworkModel net = MakeNet(cfg);
  std::map<NodeId, std::vector<Arrival>> got;
  for (NodeId id = 0; id < 4; ++id) {
    net.RegisterNode(id, RecordInto(&got[id]));
  }
  for (int i = 0; i < 5; ++i) {
    net.Send(1, 2, 7, std::make_shared<TestPayload>(i));
  }
  // Scale-out: nodes beyond every id seen so far join mid-run and talk to
  // old and new peers alike.
  for (NodeId id = 4; id < 40; ++id) {
    net.RegisterNode(id, RecordInto(&got[id]));
  }
  for (int i = 5; i < 10; ++i) {
    net.Send(1, 2, 7, std::make_shared<TestPayload>(i));
    net.Send(39, 2, 7, std::make_shared<TestPayload>(i));
    net.Send(2, 39, 8, std::make_shared<TestPayload>(i));
    net.Send(17, 38, 7, std::make_shared<TestPayload>(i));
  }
  sim_.RunUntilIdle();

  auto expect_stream = [](const std::vector<Arrival>& arrivals, NodeId from,
                          int type, int first_value, int count) {
    std::vector<Arrival> stream;
    for (const Arrival& a : arrivals) {
      if (a.from == from && a.type == type) stream.push_back(a);
    }
    ASSERT_EQ(stream.size(), static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      EXPECT_EQ(stream[static_cast<size_t>(i)].value, first_value + i);
    }
  };
  expect_stream(got[2], 1, 7, 0, 10);
  expect_stream(got[2], 39, 7, 5, 5);
  expect_stream(got[39], 2, 8, 5, 5);
  expect_stream(got[38], 17, 7, 5, 5);
}

TEST_F(NetworkFixture, SparseIdsKeepPerPairFifoApart) {
  NetworkModel::Config cfg;
  cfg.jitter_mean = VirtualDuration::Millis(30);
  NetworkModel net = MakeNet(cfg);
  const std::vector<NodeId> ids = {3, 977, 40, 1500};
  std::map<std::pair<NodeId, NodeId>, std::vector<int>> values;
  for (NodeId id : ids) {
    net.RegisterNode(id, [&, id](const Message& msg) {
      values[{msg.from, id}].push_back(
          std::static_pointer_cast<const TestPayload>(msg.payload)->value);
    });
  }
  for (int i = 0; i < 6; ++i) {
    for (NodeId from : ids) {
      for (NodeId to : ids) {
        if (from != to) net.Send(from, to, 7, std::make_shared<TestPayload>(i));
      }
    }
  }
  sim_.RunUntilIdle();
  ASSERT_EQ(values.size(), 12u);
  for (const auto& [pair, pair_values] : values) {
    EXPECT_EQ(pair_values, (std::vector<int>{0, 1, 2, 3, 4, 5}))
        << pair.first << "->" << pair.second;
  }
}

TEST_F(NetworkFixture, UnregisterWithMessagesInFlightThenReRegister) {
  NetworkModel::Config cfg;
  cfg.jitter_mean = VirtualDuration::Millis(30);
  NetworkModel net = MakeNet(cfg);
  std::vector<Arrival> before_crash;
  std::vector<Arrival> after_restart;
  net.RegisterNode(5, RecordInto(&before_crash));
  for (int i = 0; i < 4; ++i) {
    net.Send(1, 5, 7, std::make_shared<TestPayload>(i));
  }
  net.UnregisterNode(5);  // crash with four messages in flight
  sim_.Run(sim_.Now() + VirtualDuration::Seconds(1));
  EXPECT_TRUE(before_crash.empty());
  EXPECT_EQ(net.messages_dropped(), 4u);

  net.RegisterNode(5, RecordInto(&after_restart));  // restart
  for (int i = 4; i < 8; ++i) {
    net.Send(1, 5, 7, std::make_shared<TestPayload>(i));
  }
  sim_.RunUntilIdle();
  EXPECT_TRUE(before_crash.empty());
  ASSERT_EQ(after_restart.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(after_restart[i].value, static_cast<int>(i) + 4);
  }
  EXPECT_EQ(net.messages_delivered(), 4u);
}

// Many pairs, many types, random crashes and restarts, against a hash-map
// model of per-pair send order and of what is delivered or dropped.
TEST_F(NetworkFixture, ManyPairRandomSweepKeepsPerPairFifo) {
  NetworkModel::Config cfg;
  cfg.jitter_mean = VirtualDuration::Millis(5);
  NetworkModel net = MakeNet(cfg);
  NetworkModel::LinkFault fault;
  net.set_link_filter([&fault](NodeId, NodeId) { return fault; });
  Rng rng(0x5eed);
  const std::vector<int> types = {1, 2, 3, 10, 11, 12, 13, 14, 15, 16};
  constexpr NodeId kNodes = 48;

  auto pair_key = [](NodeId from, NodeId to) {
    return (static_cast<uint64_t>(from) << 32) | static_cast<uint32_t>(to);
  };
  uint64_t sent = 0;
  std::unordered_map<uint64_t, std::vector<uint64_t>> sent_ids;  // per pair
  std::unordered_map<uint64_t, size_t> next_expected;
  std::unordered_map<uint64_t, VirtualTime> last_arrival;
  uint64_t delivered = 0;
  bool ok = true;

  auto handler = [&](NodeId self) {
    return [&, self](const Message& msg) {
      const uint64_t key = pair_key(msg.from, self);
      ++delivered;
      ok = ok && msg.to == self;
      // FIFO per pair: every delivered message is later in send order and
      // later in time than the one before it on the same pair.
      const std::vector<uint64_t>& order = sent_ids[key];
      size_t& next = next_expected[key];
      while (next < order.size() && order[next] != msg.id) ++next;
      ok = ok && next < order.size();
      ++next;
      auto last = last_arrival.find(key);
      ok = ok && (last == last_arrival.end() || last->second < sim_.Now());
      last_arrival[key] = sim_.Now();
    };
  };
  std::vector<bool> up(kNodes, false);
  for (NodeId id = 0; id < kNodes; id += 2) {
    net.RegisterNode(id, handler(id));
    up[static_cast<size_t>(id)] = true;
  }
  for (int step = 0; step < 20000; ++step) {
    const int64_t roll = rng.UniformInt(0, 99);
    const NodeId a = static_cast<NodeId>(rng.UniformInt(0, kNodes - 1));
    if (roll == 0) {
      if (up[static_cast<size_t>(a)]) {
        net.UnregisterNode(a);
      } else {
        net.RegisterNode(a, handler(a));
      }
      up[static_cast<size_t>(a)] = !up[static_cast<size_t>(a)];
      continue;
    }
    if (roll == 1) {
      fault.extra_latency = VirtualDuration::Millis(rng.UniformInt(0, 40));
    }
    if (roll < 10) {
      sim_.Run(sim_.Now() + VirtualDuration::Millis(rng.UniformInt(0, 3)));
    }
    const NodeId b = static_cast<NodeId>(rng.UniformInt(0, kNodes - 1));
    const int type = types[static_cast<size_t>(rng.UniformInt(0, 9))];
    const uint64_t id = net.Send(a, b, type, std::make_shared<TestPayload>(step));
    ASSERT_NE(id, 0u);
    const uint64_t key = pair_key(a, b);
    ++sent;
    sent_ids[key].push_back(id);
  }
  sim_.RunUntilIdle();
  EXPECT_TRUE(ok);
  EXPECT_EQ(net.messages_sent(), sent);
  EXPECT_EQ(net.messages_delivered(), delivered);
  EXPECT_EQ(net.messages_delivered() + net.messages_dropped(), sent);
  EXPECT_GT(net.messages_dropped(), 0u);
  EXPECT_GT(delivered, 5000u);
}

}  // namespace
}  // namespace scalecheck
