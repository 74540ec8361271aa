// Real-socket half of the real carrier: Transport over localhost TCP.
//
// Every registered node gets its own listening socket on 127.0.0.1 (ephemeral
// port) with an accept thread; each accepted connection gets a reader thread
// that reassembles length-prefixed frames and hands decoded Messages to the
// destination node's handler. Senders cache one outbound connection per
// (from, to) pair — a single TCP stream per direction, which is what gives
// the per-pair FIFO ordering the protocol (and the conformance suite)
// relies on, exactly as the simulator's monotone delivery clamp does.
//
// Frames on the wire are `u32 length | codec frame` where the codec frame is
// src/net/wire.h's EncodeMessage output — the same codec SimTransport can
// round-trip payloads through. Malformed frames kill the connection (a codec
// or framing bug must be loud, not dropped).
//
// Failure semantics mirror NetworkModel: sending to a node that is not
// registered (never was, or unregistered = crashed) counts a drop and
// returns id 0. A send that fails to connect does the same. Messages read
// for an unregistered destination are dropped at delivery.

#ifndef SCALECHECK_SRC_NET_TCP_TRANSPORT_H_
#define SCALECHECK_SRC_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/transport/link_filter.h"
#include "src/transport/substrate.h"

namespace scalecheck {

class TcpTransport final : public Transport, public LinkFilterHost {
 public:
  TcpTransport();
  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // Opens a listener for `node` and starts accepting. The handler is invoked
  // on a reader thread; handlers must do their own locking (RealNode locks
  // its node mutex).
  void RegisterNode(NodeId node, Handler handler) override;
  // Closes the node's listener and connections; in-flight frames for it are
  // dropped. Models a process crash.
  void UnregisterNode(NodeId node) override;
  uint64_t Send(NodeId from, NodeId to, int type,
                std::shared_ptr<const Payload> payload) override;

  // Closes every socket and joins every thread. Idempotent; the destructor
  // calls it.
  void Shutdown();

  // LinkFilterHost: the filter is consulted at the top of Send, from
  // whatever thread is sending. `blocked` refuses the frame before any
  // dial/write; `extra_loss` drops probabilistically (local rng — the real
  // carrier is wall-clock nondeterministic anyway); `extra_latency` is NOT
  // modelled on TCP (no delay thread; documented sim-only).
  void SetLinkFilter(LinkFilterFn filter) override;
  // Shuts down established connections touching `node` so a partition kills
  // in-flight streams instead of letting them buffer through the fault.
  void SeverConnsTo(NodeId node) override;

  uint64_t messages_sent() const { return sent_.load(); }
  uint64_t messages_delivered() const { return delivered_.load(); }
  uint64_t messages_dropped() const { return dropped_.load(); }
  // Subset of messages_dropped: deterministic link-filter refusals (hard
  // partitions), mirroring NetworkModel::messages_blocked.
  uint64_t messages_blocked() const { return blocked_.load(); }
  uint64_t bytes_sent() const { return bytes_.load(); }

 private:
  struct Listener {
    int fd = -1;
    uint16_t port = 0;
    Handler handler;
    std::thread accept_thread;
    // Reader threads for accepted connections, joined at teardown.
    std::vector<std::thread> readers;
    std::vector<int> reader_fds;
  };

  // Cached outbound connection; `mu` serializes writers so frames from one
  // sender never interleave mid-frame.
  struct Conn {
    std::mutex mu;
    int fd = -1;
    // Frame-encode scratch, reused across sends on this connection (guarded
    // by mu, like the fd it feeds).
    std::string encode_buf;
  };

  void AcceptLoop(Listener* listener);
  void ReadLoop(NodeId to, int fd);
  // Returns a connected conn for (from, to), dialing if needed; null if the
  // destination is unknown or connect fails.
  std::shared_ptr<Conn> GetConn(NodeId from, NodeId to);
  void DropConnsTo(NodeId to);

  mutable std::mutex mu_;  // guards listeners_, conns_, shutdown_
  std::unordered_map<NodeId, std::unique_ptr<Listener>> listeners_;
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> conns_;  // (from<<32|to)
  bool shutdown_ = false;

  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> sent_{0};
  std::atomic<uint64_t> delivered_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> blocked_{0};
  std::atomic<uint64_t> bytes_{0};

  // Link-filter state; filter_mu_ also serializes the loss rng (loss draws
  // are rare — only while a degrade fault is active). filter_installed_ is
  // written under filter_mu_ and says whether link_filter_ is set, so a send
  // with no filter installed (the fault-free case) takes no lock.
  std::mutex filter_mu_;
  LinkFilterFn link_filter_;
  std::atomic<bool> filter_installed_{false};
  Rng loss_rng_{0x10557e57ULL};
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_NET_TCP_TRANSPORT_H_
