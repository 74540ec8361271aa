// Framed messages exchanged between nodes — the data half of the substrate
// seam (src/transport/substrate.h).
//
// Message/Payload used to live in src/sim/network.h; they moved below the
// simulator so the identical protocol code (Gossiper, ring maintenance,
// KvService) can run over either carrier: the deterministic NetworkModel or
// the real localhost TCP transport in src/net/. A Payload is an in-memory
// representation; the single wire codec (src/net/wire.h) defines how each
// payload type serializes when a carrier actually needs bytes.

#ifndef SCALECHECK_SRC_TRANSPORT_MESSAGE_H_
#define SCALECHECK_SRC_TRANSPORT_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/common/types.h"

namespace scalecheck {

// Base class for message payloads; modules derive their own payload types.
struct Payload {
  virtual ~Payload() = default;
  // Approximate wire size, for traffic statistics.
  virtual size_t SizeBytes() const { return 64; }
};

struct Message {
  uint64_t id = 0;  // globally unique, deterministic (assigned at send)
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  int type = 0;  // application-defined discriminator
  std::shared_ptr<const Payload> payload;
  VirtualTime sent_at;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_TRANSPORT_MESSAGE_H_
