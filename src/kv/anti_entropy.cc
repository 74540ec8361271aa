#include "src/kv/anti_entropy.h"

#include <algorithm>

#include "src/common/check.h"

namespace scalecheck {
namespace {

// Subtree indices per hash message; bounds both message size and the burst a
// single response can trigger.
constexpr size_t kMaxBatchNodes = 32;
// Hash batches re-sent after a session timeout before the session is
// abandoned.
constexpr int kMaxSessionRetries = 2;
// Yield (re-check a quarter interval later) when the node's in-flight
// foreground client ops exceed this.
constexpr size_t kPressureMaxInflight = 16;

}  // namespace

AntiEntropy::AntiEntropy(KvService* kv, uint64_t seed)
    : kv_(*kv), deps_(kv->deps_), rng_(seed) {
  bucket_bytes_ = static_cast<double>(deps_.config.repair_rate_bytes);
  bucket_refilled_ = deps_.clock->Now();
}

AntiEntropy::~AntiEntropy() { Shutdown(); }

void AntiEntropy::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  bucket_bytes_ = static_cast<double>(deps_.config.repair_rate_bytes);
  bucket_refilled_ = deps_.clock->Now();
  timer_ = std::make_unique<PeriodicClockTimer>(deps_.clock, deps_.config.repair_interval,
                                               [this] { Tick(); });
  // Desynchronized phase, same idea as the gossip timer: every node ticking
  // in lockstep is itself a storm.
  timer_->Start(deps_.config.repair_interval * rng_.UniformDouble());
}

void AntiEntropy::Stop() {
  running_ = false;
  timer_.reset();
  while (!sessions_.empty()) {
    AbortSession(sessions_.begin()->first);
  }
}

void AntiEntropy::Shutdown() {
  running_ = false;
  timer_.reset();
  for (auto& [id, s] : sessions_) {
    CancelSessionTimers(&s);
  }
  sessions_.clear();
}

int64_t AntiEntropy::ApproxBytes() const {
  int64_t bytes = tree_.ApproxBytes();
  for (const auto& [id, s] : sessions_) {
    bytes += 256 + static_cast<int64_t>(s.frontier.size()) * 16 +
             static_cast<int64_t>(s.awaiting_nodes.size()) * 8;
  }
  return bytes;
}

std::map<NodeId, std::vector<KeyRange>> AntiEntropy::CoReplicaRanges(
    const TokenRing& ring, int rf, NodeId self) {
  std::map<NodeId, std::vector<KeyRange>> out;
  const auto& entries = ring.entries();
  std::vector<NodeId> replicas;
  for (size_t i = 0; i < entries.size(); ++i) {
    ring.NaturalEndpointsForKey(entries[i].token, rf, &replicas);
    bool mine = false;
    for (NodeId r : replicas) {
      if (r == self) {
        mine = true;
        break;
      }
    }
    if (!mine) {
      continue;
    }
    for (NodeId r : replicas) {
      if (r != self) {
        out[r].push_back(ring.RangeOfEntry(i));
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Token bucket

void AntiEntropy::RefillBucket() {
  const VirtualTime now = deps_.clock->Now();
  const VirtualDuration dt = now - bucket_refilled_;
  bucket_refilled_ = now;
  if (dt.IsNegative()) {
    return;
  }
  const double burst = static_cast<double>(deps_.config.repair_rate_bytes);
  bucket_bytes_ = std::min(
      burst, bucket_bytes_ + static_cast<double>(deps_.config.repair_rate_bytes) *
                                 dt.seconds());
}

bool AntiEntropy::SpendBytes(int64_t bytes) {
  if (deps_.plant_repair_storm) {
    return true;  // PLANTED BUG: the rate limiter is ignored outright
  }
  RefillBucket();
  if (bucket_bytes_ < static_cast<double>(bytes)) {
    return false;
  }
  bucket_bytes_ -= static_cast<double>(bytes);
  return true;
}

void AntiEntropy::ChargeBytes(int64_t bytes) {
  if (deps_.plant_repair_storm) {
    return;
  }
  RefillBucket();
  // Streams are charged after the fact, so the balance may overdraw by one
  // round; the next send waits until the refill brings it positive again.
  bucket_bytes_ -= static_cast<double>(bytes);
}

VirtualDuration AntiEntropy::DelayForBytes(int64_t bytes) {
  RefillBucket();
  const double deficit = static_cast<double>(bytes) - bucket_bytes_;
  if (deficit <= 0) {
    return VirtualDuration::Millis(1);
  }
  const double secs =
      deficit / static_cast<double>(std::max<int64_t>(1, deps_.config.repair_rate_bytes));
  return std::max(VirtualDuration::Millis(1),
                  VirtualDuration::FromSecondsF(secs)) +
         VirtualDuration::Millis(1);
}

// ---------------------------------------------------------------------------
// Scheduler

void AntiEntropy::Tick() {
  if (!running_) {
    return;
  }
  // A peer that died mid-session is abandoned immediately — waiting out the
  // timeout/retry ladder against a convicted node is wasted work (and the
  // original form of the crash-mid-repair bug).
  std::vector<uint64_t> dead;
  for (const auto& [id, s] : sessions_) {
    if (!deps_.gossiper->IsAlive(s.peer)) {
      dead.push_back(id);
    }
  }
  for (uint64_t id : dead) {
    AbortSession(id);
  }

  if (deps_.plant_repair_storm) {
    StormTick();
    return;
  }
  if (sessions_.size() >= static_cast<size_t>(deps_.config.repair_max_sessions)) {
    return;
  }
  if (kv_.inflight_attempts() > kPressureMaxInflight) {
    ++kv_.stats_.repair_backoffs;
    return;  // foreground traffic wins; try again next interval
  }

  auto shared = CoReplicaRanges(*deps_.ring, deps_.replication_factor,
                                deps_.self);
  std::vector<NodeId> candidates;
  for (const auto& [peer, ranges] : shared) {
    if (!deps_.gossiper->IsAlive(peer)) {
      continue;
    }
    bool busy = false;
    for (const auto& [id, s] : sessions_) {
      if (s.peer == peer) {
        busy = true;
        break;
      }
    }
    if (!busy) {
      candidates.push_back(peer);
    }
  }
  if (candidates.empty()) {
    return;
  }
  const NodeId peer = candidates[rng_.PickIndex(candidates.size())];
  StartSession(peer, std::move(shared[peer]));
}

void AntiEntropy::StormTick() {
  // PLANTED BUG (repair-storm): no rate limit, no session cap, no pressure
  // yield — every tick streams the FULL shared range to every live
  // co-replica, simultaneously.
  auto shared = CoReplicaRanges(*deps_.ring, deps_.replication_factor,
                                deps_.self);
  for (auto& [peer, mask] : shared) {
    if (!deps_.gossiper->IsAlive(peer)) {
      continue;
    }
    std::vector<std::pair<uint64_t, int64_t>> keys;
    for (uint64_t leaf = 0; leaf < tree_.num_leaves(); ++leaf) {
      auto in_leaf = tree_.KeysInLeaf(leaf, mask);
      keys.insert(keys.end(), in_leaf.begin(), in_leaf.end());
    }
    if (keys.empty()) {
      continue;
    }
    ++kv_.stats_.repair_sessions;
    kv_.StreamRepairKeys(peer, std::move(keys), [this](int64_t bytes, int64_t) {
      kv_.stats_.repair_bytes_streamed += bytes;
    });
  }
}

void AntiEntropy::StartSession(NodeId peer, std::vector<KeyRange> mask) {
  const uint64_t id = next_session_++;
  Session s;
  s.peer = peer;
  s.mask = std::move(mask);
  s.frontier.push_back({0, 0});
  sessions_.emplace(id, std::move(s));
  ++kv_.stats_.repair_sessions;
  SendNextBatch(id);
}

void AntiEntropy::SendNextBatch(uint64_t id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return;
  }
  Session& s = it->second;
  if (s.frontier.empty()) {
    FinishIfIdle(id);
    return;
  }
  if (!deps_.gossiper->IsAlive(s.peer)) {
    AbortSession(id);
    return;
  }
  // Yield to foreground pressure: re-check shortly instead of pushing more
  // repair traffic into an already-loaded node.
  if (kv_.inflight_attempts() > kPressureMaxInflight) {
    ++kv_.stats_.repair_backoffs;
    if (s.resume_timer == kInvalidTimer) {
      s.resume_timer = deps_.clock->ScheduleAfter(
          deps_.config.repair_interval / 4, [this, id] {
            auto jt = sessions_.find(id);
            if (jt == sessions_.end()) {
              return;
            }
            jt->second.resume_timer = kInvalidTimer;
            SendNextBatch(id);
          });
    }
    return;
  }

  const int level = s.frontier.front().first;
  std::vector<uint64_t> nodes;
  while (!s.frontier.empty() && s.frontier.front().first == level &&
         nodes.size() < kMaxBatchNodes) {
    nodes.push_back(s.frontier.front().second);
    s.frontier.pop_front();
  }

  auto payload = std::make_shared<KvRepairHashPayload>();
  payload->session_id = id;
  payload->level = static_cast<uint32_t>(level);
  payload->hashes.reserve(nodes.size());
  for (uint64_t n : nodes) {
    payload->hashes.emplace_back(n, tree_.HashOfNode(level, n, s.mask));
  }

  const int64_t bytes = static_cast<int64_t>(payload->SizeBytes());
  if (!SpendBytes(bytes)) {
    // Put the batch back and wait for the bucket to refill.
    for (auto rit = nodes.rbegin(); rit != nodes.rend(); ++rit) {
      s.frontier.push_front({level, *rit});
    }
    if (s.resume_timer == kInvalidTimer) {
      s.resume_timer =
          deps_.clock->ScheduleAfter(DelayForBytes(bytes), [this, id] {
            auto jt = sessions_.find(id);
            if (jt == sessions_.end()) {
              return;
            }
            jt->second.resume_timer = kInvalidTimer;
            SendNextBatch(id);
          });
    }
    return;
  }

  s.awaiting_level = level;
  s.awaiting_nodes = std::move(nodes);
  deps_.transport->Send(deps_.self, s.peer, kKvRepairHashReq,
                         std::move(payload));
  CancelSessionTimers(&s);
  s.timeout_timer = deps_.clock->ScheduleAfter(
      deps_.config.repair_session_timeout, [this, id] { OnTimeout(id); });
}

void AntiEntropy::HandleMessage(const Message& msg) {
  switch (msg.type) {
    case kKvRepairHashReq:
      HandleHashReq(msg);
      return;
    case kKvRepairHashResp:
      HandleHashResp(msg);
      return;
    default:
      return;
  }
}

void AntiEntropy::HandleHashReq(const Message& msg) {
  auto req = std::static_pointer_cast<const KvRepairHashPayload>(msg.payload);
  if (static_cast<int>(req->level) > tree_.depth()) {
    return;  // depth mismatch; nothing sensible to compare
  }
  // The responder masks to ITS view of the ranges shared with the initiator;
  // each side computes the mask from its own ring. If the views disagree
  // transiently, differing hashes only cause over-streaming, which LWW
  // application makes harmless.
  auto shared = CoReplicaRanges(*deps_.ring, deps_.replication_factor,
                                deps_.self);
  auto mit = shared.find(msg.from);
  auto resp = std::make_shared<KvRepairDiffPayload>();
  resp->session_id = req->session_id;
  resp->level = req->level;
  if (mit != shared.end()) {
    const std::vector<KeyRange>& mask = mit->second;
    const int level = static_cast<int>(req->level);
    for (const auto& [index, hash] : req->hashes) {
      if (index >= (uint64_t{1} << level)) {
        continue;
      }
      if (tree_.HashOfNode(level, index, mask) == hash) {
        continue;
      }
      resp->differing.push_back(index);
      // At leaf level the responder also pushes its own copy of the
      // differing span — divergence repairs in both directions in one
      // session.
      if (level == tree_.depth()) {
        auto keys = tree_.KeysInLeaf(index, mask);
        if (!keys.empty()) {
          kv_.StreamRepairKeys(msg.from, std::move(keys),
                               [this](int64_t bytes, int64_t) {
                                 kv_.stats_.repair_bytes_streamed += bytes;
                                 ChargeBytes(bytes);
                               });
        }
      }
    }
  }
  ChargeBytes(static_cast<int64_t>(resp->SizeBytes()));
  deps_.transport->Send(deps_.self, msg.from, kKvRepairHashResp,
                         std::move(resp));
}

void AntiEntropy::HandleHashResp(const Message& msg) {
  auto resp = std::static_pointer_cast<const KvRepairDiffPayload>(msg.payload);
  auto it = sessions_.find(resp->session_id);
  if (it == sessions_.end()) {
    return;  // aborted or finished; a late answer is not an error
  }
  Session& s = it->second;
  if (msg.from != s.peer ||
      static_cast<int>(resp->level) != s.awaiting_level) {
    return;  // stale (e.g. the answer to a batch we already retried)
  }
  CancelSessionTimers(&s);
  const int level = s.awaiting_level;
  s.awaiting_level = -1;
  s.awaiting_nodes.clear();
  s.retries = 0;

  if (level == tree_.depth()) {
    std::vector<uint64_t> leaves;
    for (uint64_t leaf : resp->differing) {
      if (leaf < tree_.num_leaves()) {
        leaves.push_back(leaf);
      }
    }
    StreamLeaves(resp->session_id, s.peer, leaves, s.mask);
  } else {
    for (uint64_t index : resp->differing) {
      if (index >= (uint64_t{1} << level)) {
        continue;
      }
      s.frontier.push_back({level + 1, index * 2});
      s.frontier.push_back({level + 1, index * 2 + 1});
    }
  }
  SendNextBatch(resp->session_id);
}

void AntiEntropy::StreamLeaves(uint64_t session_id, NodeId target,
                               const std::vector<uint64_t>& leaves,
                               const std::vector<KeyRange>& mask) {
  std::vector<std::pair<uint64_t, int64_t>> keys;
  for (uint64_t leaf : leaves) {
    auto in_leaf = tree_.KeysInLeaf(leaf, mask);
    keys.insert(keys.end(), in_leaf.begin(), in_leaf.end());
  }
  if (keys.empty()) {
    return;
  }
  auto it = sessions_.find(session_id);
  if (it != sessions_.end()) {
    ++it->second.outstanding_streams;
  }
  kv_.StreamRepairKeys(target, std::move(keys),
                       [this, session_id](int64_t bytes, int64_t) {
                         kv_.stats_.repair_bytes_streamed += bytes;
                         ChargeBytes(bytes);
                         auto jt = sessions_.find(session_id);
                         if (jt == sessions_.end()) {
                           return;
                         }
                         --jt->second.outstanding_streams;
                         FinishIfIdle(session_id);
                       });
}

void AntiEntropy::OnTimeout(uint64_t id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return;
  }
  Session& s = it->second;
  s.timeout_timer = kInvalidTimer;
  if (!deps_.gossiper->IsAlive(s.peer) || s.retries >= kMaxSessionRetries) {
    AbortSession(id);
    return;
  }
  ++s.retries;
  ++kv_.stats_.repair_retries;
  // Re-queue the in-flight batch and go through the normal send path (which
  // re-applies the rate limit and pressure checks).
  const int level = s.awaiting_level;
  std::vector<uint64_t> nodes = std::move(s.awaiting_nodes);
  s.awaiting_level = -1;
  s.awaiting_nodes.clear();
  for (auto rit = nodes.rbegin(); rit != nodes.rend(); ++rit) {
    s.frontier.push_front({level, *rit});
  }
  SendNextBatch(id);
}

void AntiEntropy::AbortSession(uint64_t id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return;
  }
  CancelSessionTimers(&it->second);
  sessions_.erase(it);
  ++kv_.stats_.repair_aborted;
}

void AntiEntropy::FinishIfIdle(uint64_t id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return;
  }
  Session& s = it->second;
  if (!s.frontier.empty() || s.awaiting_level >= 0 ||
      s.outstanding_streams > 0) {
    return;
  }
  CancelSessionTimers(&s);
  sessions_.erase(it);
}

void AntiEntropy::CancelSessionTimers(Session* s) {
  if (s->timeout_timer != kInvalidTimer) {
    deps_.clock->CancelTimer(s->timeout_timer);
    s->timeout_timer = kInvalidTimer;
  }
  if (s->resume_timer != kInvalidTimer) {
    deps_.clock->CancelTimer(s->resume_timer);
    s->resume_timer = kInvalidTimer;
  }
}

}  // namespace scalecheck
