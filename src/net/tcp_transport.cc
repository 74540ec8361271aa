#include "src/net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "src/common/logging.h"
#include "src/net/wire.h"

namespace scalecheck {
namespace {

// Larger than any gossip/KV frame this harness produces; a length beyond it
// means framing desync, and the connection dies rather than allocating it.
constexpr uint32_t kMaxFrameBytes = 64u << 20;

uint64_t PairKey(NodeId from, NodeId to) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
         static_cast<uint32_t>(to);
}

bool WriteAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    ssize_t n = send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, char* data, size_t len) {
  while (len > 0) {
    ssize_t n = recv(fd, data, len, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;  // EOF or error
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

// Wakes any thread blocked in accept/recv on fd. The fd itself is closed by
// its OWNING thread only (the reader closes its connection fd when its loop
// exits; listener fds are closed after the accept thread is joined) — closing
// an fd another thread is concurrently using is a genuine race: the kernel
// may reuse the number, silently redirecting the blocked syscall.
void WakeFd(int fd) {
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
  }
}

}  // namespace

TcpTransport::TcpTransport() = default;

TcpTransport::~TcpTransport() { Shutdown(); }

void TcpTransport::RegisterNode(NodeId node, Handler handler) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    SC_LOG(Error) << "tcp: socket() failed: " << std::strerror(errno);
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0) {
    SC_LOG(Error) << "tcp: bind/listen failed: " << std::strerror(errno);
    ::close(fd);
    return;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);

  auto listener = std::make_unique<Listener>();
  listener->fd = fd;
  listener->port = ntohs(addr.sin_port);
  listener->handler = std::move(handler);
  Listener* raw = listener.get();

  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    ::close(fd);
    return;
  }
  // Re-registration (restart) replaces the old listener; callers unregister
  // first, so this is just belt-and-braces.
  listeners_[node] = std::move(listener);
  raw->accept_thread = std::thread([this, raw] { AcceptLoop(raw); });
}

void TcpTransport::AcceptLoop(Listener* listener) {
  for (;;) {
    int conn_fd = ::accept(listener->fd, nullptr, nullptr);
    if (conn_fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // listener closed
    }
    int one = 1;
    ::setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Identify the destination by which listener accepted, not by peeking
    // at frames: every frame on this connection is for this node.
    NodeId to = kInvalidNode;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [node, l] : listeners_) {
        if (l.get() == listener) {
          to = node;
          break;
        }
      }
      if (to == kInvalidNode || shutdown_) {
        ::close(conn_fd);
        continue;
      }
      listener->reader_fds.push_back(conn_fd);
      listener->readers.emplace_back(
          [this, to, conn_fd] { ReadLoop(to, conn_fd); });
    }
  }
}

void TcpTransport::ReadLoop(NodeId to, int fd) {
  // This thread owns fd: nobody else closes it (WakeFd only shuts it down to
  // break the recv below), and the loop closes it on every exit path.
  std::string body;
  for (;;) {
    uint32_t frame_len = 0;
    if (!ReadAll(fd, reinterpret_cast<char*>(&frame_len), 4)) {
      break;
    }
    if (frame_len == 0 || frame_len > kMaxFrameBytes) {
      SC_LOG(Error) << "tcp: bad frame length " << frame_len << " for node "
                    << to << "; closing connection";
      break;
    }
    body.resize(frame_len);
    if (!ReadAll(fd, body.data(), frame_len)) {
      break;
    }
    Result<Message> msg = wire::DecodeMessage(body);
    if (!msg.ok()) {
      SC_LOG(Error) << "tcp: undecodable frame for node " << to << ": "
                    << msg.status().ToString() << "; closing connection";
      break;
    }
    if (msg.value().to != to) {
      // A frame addressed to another node was sent down this node's
      // connection: the peer is confused, so trust nothing more from it.
      SC_LOG(Error) << "tcp: frame for node " << msg.value().to
                    << " arrived at node " << to << "; closing connection";
      dropped_.fetch_add(1);
      break;
    }
    Handler handler;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = listeners_.find(to);
      if (it != listeners_.end()) {
        handler = it->second->handler;
      }
    }
    if (!handler) {
      dropped_.fetch_add(1);
      continue;  // destination unregistered while the frame was in flight
    }
    handler(msg.value());
    delivered_.fetch_add(1);
  }
  ::close(fd);
}

std::shared_ptr<TcpTransport::Conn> TcpTransport::GetConn(NodeId from, NodeId to) {
  uint64_t key = PairKey(from, to);
  uint16_t port = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return nullptr;
    }
    auto it = conns_.find(key);
    if (it != conns_.end()) {
      std::lock_guard<std::mutex> wlock(it->second->mu);
      if (it->second->fd >= 0) {
        return it->second;
      }
    }
    auto lit = listeners_.find(to);
    if (lit == listeners_.end()) {
      return nullptr;  // destination not listening (crashed / never started)
    }
    port = lit->second->port;
  }

  // Dial outside mu_ (connect can block); racing dialers for the same pair
  // are resolved below — first insert wins, the loser closes its socket.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = conns_.emplace(key, conn);
  if (!inserted) {
    {
      std::lock_guard<std::mutex> wlock(it->second->mu);
      if (it->second->fd >= 0) {
        ::close(fd);  // lost the race; use the established conn
        return it->second;
      }
    }
    it->second = conn;  // cached conn was dead; replace it
  }
  return conn;
}

void TcpTransport::SetLinkFilter(LinkFilterFn filter) {
  std::lock_guard<std::mutex> lock(filter_mu_);
  link_filter_ = std::move(filter);
  filter_installed_.store(static_cast<bool>(link_filter_), std::memory_order_release);
}

void TcpTransport::SeverConnsTo(NodeId node) {
  std::lock_guard<std::mutex> lock(mu_);
  DropConnsTo(node);
}

uint64_t TcpTransport::Send(NodeId from, NodeId to, int type,
                            std::shared_ptr<const Payload> payload) {
  sent_.fetch_add(1);
  // A filter installed before this send began is seen here; one installed
  // while the send runs may or may not apply, as with the lock alone.
  if (filter_installed_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(filter_mu_);
    if (link_filter_) {
      LinkFault fault = link_filter_(from, to);
      if (fault.blocked) {
        // Hard partition: refuse before dialing — a blocked pair must not
        // even establish a connection.
        dropped_.fetch_add(1);
        blocked_.fetch_add(1);
        return 0;
      }
      if (fault.extra_loss > 0.0 && loss_rng_.Bernoulli(fault.extra_loss)) {
        dropped_.fetch_add(1);
        return 0;
      }
      // extra_latency is sim-only; the TCP carrier delivers at wire speed.
    }
  }
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.type = type;
  msg.payload = std::move(payload);
  msg.id = next_id_.fetch_add(1);

  std::shared_ptr<Conn> conn = GetConn(from, to);
  if (conn == nullptr) {
    dropped_.fetch_add(1);
    return 0;
  }
  std::lock_guard<std::mutex> wlock(conn->mu);
  wire::EncodeMessageTo(msg, &conn->encode_buf);
  const std::string& frame = conn->encode_buf;
  uint32_t frame_len = static_cast<uint32_t>(frame.size());
  if (conn->fd < 0 ||
      !WriteAll(conn->fd, reinterpret_cast<const char*>(&frame_len), 4) ||
      !WriteAll(conn->fd, frame.data(), frame.size())) {
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;  // next Send to this pair redials
    }
    dropped_.fetch_add(1);
    return 0;
  }
  bytes_.fetch_add(4 + frame.size());
  return msg.id;
}

void TcpTransport::DropConnsTo(NodeId to) {
  // Caller holds mu_. Shut the sockets down so blocked writers/readers wake;
  // fds are closed by the owning side's cleanup (writer marks fd dead on the
  // next failed Send).
  for (auto& [key, conn] : conns_) {
    if (static_cast<NodeId>(key & 0xffffffff) == to ||
        static_cast<NodeId>(key >> 32) == to) {
      std::lock_guard<std::mutex> wlock(conn->mu);
      if (conn->fd >= 0) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
}

void TcpTransport::UnregisterNode(NodeId node) {
  std::unique_ptr<Listener> listener;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = listeners_.find(node);
    if (it == listeners_.end()) {
      return;
    }
    listener = std::move(it->second);
    listeners_.erase(it);
    DropConnsTo(node);
  }
  WakeFd(listener->fd);  // unblocks accept
  if (listener->accept_thread.joinable()) {
    listener->accept_thread.join();
  }
  ::close(listener->fd);
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : listener->reader_fds) {
      WakeFd(fd);  // readers close their own fds as their loops exit
    }
    readers = std::move(listener->readers);
  }
  for (std::thread& t : readers) {
    if (t.joinable()) {
      t.join();
    }
  }
}

void TcpTransport::Shutdown() {
  std::vector<std::unique_ptr<Listener>> listeners;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
    for (auto& [node, listener] : listeners_) {
      listeners.push_back(std::move(listener));
    }
    listeners_.clear();
    for (auto& [key, conn] : conns_) {
      std::lock_guard<std::mutex> wlock(conn->mu);
      if (conn->fd >= 0) {
        ::shutdown(conn->fd, SHUT_RDWR);
        ::close(conn->fd);
        conn->fd = -1;
      }
    }
    conns_.clear();
  }
  for (auto& listener : listeners) {
    WakeFd(listener->fd);
    if (listener->accept_thread.joinable()) {
      listener->accept_thread.join();
    }
    ::close(listener->fd);
  }
  // Accept threads are dead, so reader bookkeeping is stable without mu_.
  for (auto& listener : listeners) {
    for (int fd : listener->reader_fds) {
      WakeFd(fd);  // readers close their own fds as their loops exit
    }
    for (std::thread& t : listener->readers) {
      if (t.joinable()) {
        t.join();
      }
    }
  }
}

}  // namespace scalecheck
