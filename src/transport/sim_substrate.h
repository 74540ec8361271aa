// Simulated carrier: the substrate seam implemented over the deterministic
// Simulator + NetworkModel + SimThread. The Simulator is the Clock itself
// (src/sim/simulator.h); these are the other two adapters.
//
// The adapters are deliberately trivial — every call forwards 1:1 to the
// object the protocol code used to call directly, so the event stream, RNG
// draws and message ids are bit-identical to the pre-seam code. That is the determinism contract the sim golden test
// (tests/sim_golden_test.cc) pins: refactoring the protocol onto the seam
// must not change a single byte of a pinned (spec, seed) RunResult JSON.
//
// SimTransport can optionally round-trip every payload through the shared
// wire codec (encode → decode → deliver the decoded copy). The conformance
// suite uses this to prove that the bytes TcpTransport would put on a socket
// reconstruct payloads the protocol cannot distinguish from the originals.
// It is off by default: the zero-copy pointer hand-off is part of the
// simulator's measured-cost model (serialization cost is charged explicitly
// by the Gossiper work estimates, not burned for real).

#ifndef SCALECHECK_SRC_TRANSPORT_SIM_SUBSTRATE_H_
#define SCALECHECK_SRC_TRANSPORT_SIM_SUBSTRATE_H_

#include <memory>
#include <utility>

#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/sim/thread.h"
#include "src/transport/substrate.h"

namespace scalecheck {

class SimTransport final : public Transport {
 public:
  struct Options {
    // Encode + decode every payload through src/net/wire.h and deliver the
    // reconstructed copy. Conformance-test only (see file comment).
    bool roundtrip_codec = false;
  };

  explicit SimTransport(NetworkModel* network);
  SimTransport(NetworkModel* network, Options options);

  void RegisterNode(NodeId node, Handler handler) override {
    network_->RegisterNode(node, std::move(handler));
  }
  void UnregisterNode(NodeId node) override { network_->UnregisterNode(node); }
  uint64_t Send(NodeId from, NodeId to, int type,
                std::shared_ptr<const Payload> payload) override;

  uint64_t codec_roundtrips() const { return codec_roundtrips_; }

 private:
  NetworkModel* network_;
  Options options_;
  uint64_t codec_roundtrips_ = 0;
};

// Maps Stage::Submit onto the node's SimThread as the replica job
// Compute(op), Run(done): op runs at the start of the burst and returns its
// work, which charges virtual time exactly as the pre-seam KvService's
// Run(op → work), Compute(work), Run(done) job did.
class SimStage final : public Stage {
 public:
  explicit SimStage(SimThread* thread);

  void Submit(const char* label, OpFn op, DoneFn done) override;

 private:
  SimThread* thread_;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_TRANSPORT_SIM_SUBSTRATE_H_
