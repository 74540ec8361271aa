#include "src/transport/sim_substrate.h"

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/net/wire.h"

namespace scalecheck {

SimTransport::SimTransport(NetworkModel* network)
    : SimTransport(network, Options{}) {}

SimTransport::SimTransport(NetworkModel* network, Options options)
    : network_(network), options_(options) {
  CHECK_NOTNULL(network);
}

uint64_t SimTransport::Send(NodeId from, NodeId to, int type,
                            std::shared_ptr<const Payload> payload) {
  // A negative id is no node: the codec rejects it and the network drops
  // the send, so it skips the round trip and is counted there.
  if (options_.roundtrip_codec && from >= 0 && to >= 0) {
    // Prove the shared codec reconstructs this payload: what TcpTransport
    // would frame onto the socket, delivered instead of the original.
    Message msg;
    msg.from = from;
    msg.to = to;
    msg.type = type;
    msg.payload = std::move(payload);
    Result<Message> decoded = wire::DecodeMessage(wire::EncodeMessage(msg));
    if (!decoded.ok()) {
      SC_LOG(Error) << "sim codec roundtrip failed for type " << type << ": "
                    << decoded.status().ToString();
      return 0;
    }
    ++codec_roundtrips_;
    payload = decoded.value().payload;
  }
  return network_->Send(from, to, type, std::move(payload));
}

SimStage::SimStage(SimThread* thread) : thread_(thread) { CHECK_NOTNULL(thread); }

// Compute and Run wrap each callable in a step closure that holds nothing
// else, so a Stage callable that fits its own buffer fits the step's too.
static_assert(sizeof(Stage::OpFn) <= Job::Step::kInlineBytes &&
              sizeof(Stage::DoneFn) <= Job::Step::kInlineBytes);

void SimStage::Submit(const char* label, OpFn op, DoneFn done) {
  // op runs as the Compute step's work function: if it kills the thread (a
  // crash from inside the stage), no burst starts and done never runs.
  Job job(label);
  job.Compute(std::move(op)).Run(std::move(done));
  thread_->Enqueue(std::move(job));
}

}  // namespace scalecheck
