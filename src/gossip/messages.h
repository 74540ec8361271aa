// Gossip wire messages: the Cassandra-style three-way anti-entropy exchange.
//
//   X -> Y  SYN : digests of everything X knows (endpoint, generation,
//                 max version)
//   Y -> X  ACK : states Y has that X is missing, plus digests of what Y
//                 wants from X
//   X -> Y  ACK2: the states Y requested
//
// Payload objects are immutable after send (shared_ptr<const>), so a payload
// can be delivered to a node that processes it much later without copying.

#ifndef SCALECHECK_SRC_GOSSIP_MESSAGES_H_
#define SCALECHECK_SRC_GOSSIP_MESSAGES_H_

#include <vector>

#include "src/gossip/endpoint_state.h"
#include "src/transport/message.h"

namespace scalecheck {

// Message::type discriminators for gossip traffic.
// These share the cluster NetworkModel with the gossip, KV and repair types
// (src/gossip/messages.h, src/kv/kv_service.h, src/kv/anti_entropy.h), so
// values stay distinct across the three enums.
enum GossipMessageType : int {
  kGossipSyn = 1,
  kGossipAck = 2,
  kGossipAck2 = 3,
};

struct GossipDigest {
  NodeId endpoint = kInvalidNode;
  int64_t generation = 0;
  int64_t max_version = 0;
};

// SizeBytes accounts digest sections at their delta-varint encoded size
// (src/gossip/digest_codec.h) so the simulated NetworkModel charges the same
// bytes the v2 wire format ships; implementations live in messages.cc.

struct SynPayload : public Payload {
  std::vector<GossipDigest> digests;

  size_t SizeBytes() const override;
  // PayloadPool recycling hook: empty the content, keep the capacity.
  void Clear() { digests.clear(); }
};

struct AckPayload : public Payload {
  // States the receiver is missing (sender is ahead).
  EndpointStateMap states;
  // Digests the sender wants full states for (receiver is ahead).
  std::vector<GossipDigest> requests;

  size_t SizeBytes() const override;
  void Clear() {
    states.clear();
    requests.clear();
  }
};

struct Ack2Payload : public Payload {
  EndpointStateMap states;

  size_t SizeBytes() const override;
  void Clear() { states.clear(); }
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_GOSSIP_MESSAGES_H_
