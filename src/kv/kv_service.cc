#include "src/kv/kv_service.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/kv/anti_entropy.h"
#include "src/kv/kv_history.h"

namespace scalecheck {

namespace {

// Client-request retry policy. A request is attempted up to
// KvConfig::max_attempts times within kRequestDeadline, each attempt bounded
// by kAttemptTimeout; failed attempts back off exponentially from
// kRetryBaseBackoff with deterministic jitter from the retry RNG.
constexpr VirtualDuration kAttemptTimeout = VirtualDuration::Seconds(2);
constexpr VirtualDuration kRetryBaseBackoff = VirtualDuration::Millis(50);
constexpr VirtualDuration kRequestDeadline = VirtualDuration::Seconds(8);
// Background read repair probability on mismatch-free quorum reads
// (observed mismatches always repair), drawn from the read-repair RNG.
constexpr double kReadRepairChance = 0.1;

}  // namespace

Token KvTokenForKey(uint64_t key) { return Mix64(key); }

KvService::KvService(Deps deps)
    : deps_(std::move(deps)),
      storage_(std::make_unique<StorageEngine>()),
      retry_rng_(HashCombine(deps_.seed, 0x4b565254ULL)),    // "KVRT"
      repair_rng_(HashCombine(deps_.seed, 0x4b565252ULL)) {  // "KVRR"
  CHECK_NOTNULL(deps_.clock);
  CHECK_NOTNULL(deps_.transport);
  CHECK_NOTNULL(deps_.stage);
  CHECK_NOTNULL(deps_.ring);
  CHECK_NOTNULL(deps_.gossiper);
  CHECK_GT(deps_.replication_factor, 0);
  if (deps_.config.repair) {
    repair_ = std::make_unique<AntiEntropy>(this,
                                            HashCombine(deps_.seed, 0x4b565245ULL));  // "KVRE"
  }
}

KvService::~KvService() = default;

void KvService::Start() {
  if (repair_ != nullptr && !down_) {
    repair_->Start();
  }
}

void KvService::Shutdown() {
  if (repair_ != nullptr) {
    repair_->Shutdown();
  }
}

void KvService::Write(uint64_t key, std::string value, DoneFn done) {
  Submit(/*is_write=*/true, key, std::move(value), std::move(done));
}

void KvService::Read(uint64_t key, DoneFn done) {
  Submit(/*is_write=*/false, key, "", std::move(done));
}

void KvService::Submit(bool is_write, uint64_t key, std::string value, DoneFn done) {
  ClientOp* op;
  if (free_client_ops_.empty()) {
    client_ops_.push_back(std::make_unique<ClientOp>());
    op = client_ops_.back().get();
  } else {
    op = free_client_ops_.back();
    free_client_ops_.pop_back();
  }
  op->is_write = is_write;
  op->key = key;
  op->value = std::move(value);
  op->done = std::move(done);
  op->attempt = 0;
  op->started = deps_.clock->Now();
  op->deadline_at = op->started + kRequestDeadline;
  op->history_id = 0;
  switch (deps_.config.consistency) {
    case KvConsistency::kOne:
      ++stats_.ops_one;
      break;
    case KvConsistency::kQuorum:
      ++stats_.ops_quorum;
      break;
    case KvConsistency::kAll:
      ++stats_.ops_all;
      break;
  }
  if (deps_.history != nullptr) {
    op->history_id = deps_.history->RecordIssued(deps_.self, is_write, key,
                                                 op->value, op->started);
  }
  Attempt(op);
}

void KvService::Attempt(ClientOp* op) {
  ++op->attempt;
  if (down_) {
    Conclude(op, KvOutcome::kUnavailable, "");
    return;
  }
  // The per-attempt timeout never extends past the request deadline.
  VirtualDuration budget = op->deadline_at - deps_.clock->Now();
  VirtualDuration timeout = std::min(kAttemptTimeout, budget);
  if (timeout.nanos() < 1) {
    timeout = VirtualDuration::Nanos(1);
  }
  StartOp(op, timeout);
}

void KvService::OnAttemptDone(ClientOp* op, KvOutcome outcome, std::string value) {
  if (outcome == KvOutcome::kOk) {
    Conclude(op, outcome, std::move(value));
    return;
  }
  int max_attempts = std::max(1, deps_.config.max_attempts);
  if (op->attempt >= max_attempts) {
    Conclude(op, outcome, "");
    return;
  }
  // Exponential backoff with deterministic jitter in [0.5, 1.5).
  double scale = static_cast<double>(int64_t{1} << (op->attempt - 1));
  double jitter = 0.5 + retry_rng_.UniformDouble();
  auto backoff = VirtualDuration::Nanos(static_cast<int64_t>(
      static_cast<double>(kRetryBaseBackoff.nanos()) * scale * jitter));
  if (deps_.clock->Now() + backoff >= op->deadline_at) {
    Conclude(op, outcome, "");
    return;
  }
  ++stats_.retries;
  deps_.clock->ScheduleAfter(backoff, [this, op] { Attempt(op); });
}

void KvService::Conclude(ClientOp* op, KvOutcome outcome, std::string value) {
  switch (outcome) {
    case KvOutcome::kOk:
      ++stats_.ok;
      stats_.latency.AddDuration(deps_.clock->Now() - op->started);
      break;
    case KvOutcome::kUnavailable:
      ++stats_.unavailable;
      ++stats_.gave_up;
      break;
    case KvOutcome::kTimeout:
      ++stats_.timeout;
      ++stats_.gave_up;
      break;
  }
  if (deps_.history != nullptr) {
    deps_.history->RecordConcluded(op->history_id, outcome, value,
                                   deps_.clock->Now());
  }
  // Recycled before the callback, which may submit the client's next request.
  DoneFn done = std::move(op->done);
  op->done = nullptr;
  free_client_ops_.push_back(op);
  if (done) {
    done(outcome, std::move(value));
  }
}

void KvService::StartOp(ClientOp* op, VirtualDuration timeout) {
  const bool is_write = op->is_write;
  const uint64_t key = op->key;
  if (deps_.ring->num_entries() == 0) {
    OnAttemptDone(op, KvOutcome::kUnavailable, "");
    return;
  }
  std::vector<NodeId> live = std::move(live_scratch_);
  std::vector<NodeId> dead = std::move(dead_scratch_);
  deps_.ring->NaturalEndpointsForKey(KvTokenForKey(key), deps_.replication_factor,
                                     &live);
  dead.clear();
  size_t num_live = 0;
  for (NodeId replica : live) {
    if (replica == deps_.self || deps_.gossiper->IsAlive(replica)) {
      live[num_live++] = replica;
    } else {
      dead.push_back(replica);
    }
  }
  live.resize(num_live);
  if (static_cast<int>(live.size()) < RequiredAcks()) {
    live_scratch_ = std::move(live);
    dead_scratch_ = std::move(dead);
    // The §2 user impact: replicas convicted by the flapping failure
    // detector are skipped, so the operation cannot reach its ack threshold.
    OnAttemptDone(op, KvOutcome::kUnavailable, "");
    return;
  }

  auto [op_id, inflight] = inflight_.Insert();
  inflight->client = op;
  inflight->is_write = is_write;
  inflight->key = key;
  inflight->acks = 0;
  inflight->needed = RequiredAcks();
  inflight->outstanding = static_cast<int>(live.size());
  inflight->targets.assign(live.begin(), live.end());
  inflight->ack_from.clear();
  inflight->read_versions.clear();
  inflight->read_value.clear();
  inflight->read_timestamp = -1;
  inflight->timeout_timer = deps_.clock->ScheduleAfter(timeout, [this, op_id] {
    InFlight* timed_out = inflight_.Find(op_id);
    if (timed_out == nullptr) {
      return;
    }
    timed_out->timeout_timer = kInvalidTimer;
    Finish(op_id, KvOutcome::kTimeout);
  });

  // Hybrid timestamp: virtual time in the high bits, coordinator id in the
  // low bits, clamped monotonic per coordinator. Comparable across
  // coordinators, so last-write-wins read resolution agrees with the real
  // order in which quorum writes were issued.
  clock_counter_ = std::max<int64_t>(
      clock_counter_ + 1, deps_.clock->Now().nanos() * 1024 +
                              (static_cast<int64_t>(deps_.self) & 1023));
  int64_t timestamp = clock_counter_;
  inflight->timestamp = timestamp;
  if (is_write) {
    // Hinted handoff: the write is proceeding without the convicted
    // replicas, so remember their copy for replay when they come back.
    for (NodeId replica : dead) {
      QueueHint(replica, key, op->value, timestamp);
    }
  }
  std::shared_ptr<KvRequestPayload> req = NewRequest();
  req->op_id = op_id;
  req->key = key;
  req->value = op->value;
  req->timestamp = timestamp;
  std::shared_ptr<const Payload> payload = std::move(req);
  // On an inline stage the local replica's ack can Finish this attempt (and
  // conclude the request) inside the loop, so past this point neither `op`
  // nor the slot is read: the loop runs over its own copy of the targets.
  for (NodeId replica : live) {
    SendTo(replica, is_write ? kKvWriteReq : kKvReadReq, payload);
  }
  live_scratch_ = std::move(live);
  dead_scratch_ = std::move(dead);
}

void KvService::HandleMessage(const Message& msg) {
  switch (msg.type) {
    case kKvWriteReq: {
      auto req = std::static_pointer_cast<const KvRequestPayload>(msg.payload);
      const NodeId coordinator = msg.from;
      const uint64_t op_id = req->op_id;
      deps_.stage->Submit(
          "kv.write-replica",
          [this, req = std::move(req)] {
            WorkUnits work = storage_->Put(req->key, req->value, req->timestamp);
            if (deps_.config.wal) {
              // Sequential append: cheap relative to the memtable insert.
              int64_t appended =
                  wal_.Append(req->key, req->timestamp, req->value);
              ++stats_.wal_appends;
              work += 100 + static_cast<WorkUnits>(appended) / 4;
            }
            if (repair_ != nullptr) {
              repair_->OnWriteApplied(req->key, req->timestamp);
            }
            return work;
          },
          [this, op_id, coordinator] {
            const bool fire_and_forget = op_id == 0;
            if (!deps_.config.wal) {
              if (!fire_and_forget) {
                SendWriteAck(coordinator, op_id);
              }
            } else {
              if (!fire_and_forget) {
                if (deps_.plant_ack_before_sync) {
                  // PLANTED BUG: acking here, before the group commit, is
                  // the ack-before-fsync mistake — a crash inside the sync
                  // window silently loses an acknowledged write.
                  SendWriteAck(coordinator, op_id);
                } else {
                  pending_acks_.push_back(PendingAck{coordinator, op_id});
                }
              }
              ScheduleWalSync();
            }
            MaybeRecharge();
          });
      break;
    }
    case kKvReadReq: {
      const auto& req = static_cast<const KvRequestPayload&>(*msg.payload);
      const NodeId coordinator = msg.from;
      const uint64_t key = req.key;
      // One response, filled by the storage read and sent when it is done.
      std::shared_ptr<KvResponsePayload> resp = NewResponse();
      resp->op_id = req.op_id;
      resp->ack = true;
      deps_.stage->Submit(
          "kv.read-replica",
          [this, resp, key] {
            WorkUnits work = 0;
            std::optional<std::string> value = storage_->Get(key, &work);
            resp->found = value.has_value();
            resp->timestamp = storage_->TimestampOf(key);
            if (value.has_value()) {
              resp->value = *std::move(value);
            }
            return work;
          },
          [this, resp, coordinator] {
            SendTo(coordinator, kKvReadResp, resp);
          });
      break;
    }
    case kKvRepairHashReq:
    case kKvRepairHashResp: {
      if (repair_ != nullptr && !down_) {
        repair_->HandleMessage(msg);
      }
      break;
    }
    case kKvRepairStreamWrite: {
      auto req = std::static_pointer_cast<const KvRequestPayload>(msg.payload);
      deps_.stage->Submit(
          "kv.repair-apply",
          [this, req = std::move(req)] {
            // TimestampOf guard instead of a bare Put: it makes the
            // "fixed" count honest (only actual advances count) and closes
            // the memtable-shadows-flushed-run edge for the repair path.
            if (storage_->TimestampOf(req->key) >= req->timestamp) {
              return WorkUnits{50};
            }
            WorkUnits work = storage_->Put(req->key, req->value, req->timestamp);
            if (deps_.config.wal) {
              int64_t appended =
                  wal_.Append(req->key, req->timestamp, req->value);
              ++stats_.wal_appends;
              work += 100 + static_cast<WorkUnits>(appended) / 4;
            }
            ++stats_.repair_keys_fixed;
            if (repair_ != nullptr) {
              repair_->OnWriteApplied(req->key, req->timestamp);
            }
            return work;
          },
          [this] {
            if (deps_.config.wal) {
              ScheduleWalSync();
            }
            MaybeRecharge();
          });
      break;
    }
    case kKvWriteResp:
    case kKvReadResp: {
      const auto& resp = static_cast<const KvResponsePayload&>(*msg.payload);
      InFlight* op = inflight_.Find(resp.op_id);
      if (op == nullptr) {
        return;  // already finished, or a fire-and-forget (op_id 0) ack
      }
      --op->outstanding;
      if (resp.ack) {
        ++op->acks;
        op->ack_from.push_back(msg.from);
        if (!op->is_write) {
          op->read_versions.emplace_back(msg.from,
                                         resp.found ? resp.timestamp : 0);
        }
        // Quorum read resolution: the newest version wins (last-write-wins
        // by coordinator timestamp, as the write path orders them).
        if (resp.found && resp.timestamp > op->read_timestamp) {
          op->read_timestamp = resp.timestamp;
          op->read_value = resp.value;
        }
      }
      if (op->acks >= op->needed) {
        Finish(resp.op_id, KvOutcome::kOk);
      } else if (op->outstanding == 0) {
        Finish(resp.op_id, KvOutcome::kTimeout);
      }
      break;
    }
    default:
      CHECK(false) << "not a KV message type" << msg.type;
  }
}

void KvService::Finish(uint64_t op_id, KvOutcome outcome) {
  InFlight* op = inflight_.Find(op_id);
  CHECK(op != nullptr);
  if (op->timeout_timer != kInvalidTimer) {
    deps_.clock->CancelTimer(op->timeout_timer);
  }
  ClientOp* client = op->client;
  std::string value;
  if (outcome == KvOutcome::kOk) {
    if (op->is_write) {
      // The durability audit trail: which replicas this ack rests on.
      if (deps_.history != nullptr) {
        deps_.history->RecordWriteAcked(client->history_id, op->timestamp,
                                        op->ack_from);
      }
    } else {
      MaybeReadRepair(*op);
      value = std::move(op->read_value);
    }
  }
  // The slot is free before the callback, which may start a new attempt.
  inflight_.Erase(op_id);
  // Outcome accounting happens at the client-request layer (Conclude), so a
  // retried attempt's failure is not double-counted.
  OnAttemptDone(client, outcome, std::move(value));
}

std::shared_ptr<KvRequestPayload> KvService::NewRequest() {
  return deps_.payloads != nullptr ? deps_.payloads->request.Acquire()
                                   : std::make_shared<KvRequestPayload>();
}

std::shared_ptr<KvResponsePayload> KvService::NewResponse() {
  return deps_.payloads != nullptr ? deps_.payloads->response.Acquire()
                                   : std::make_shared<KvResponsePayload>();
}

void KvService::SendTo(NodeId to, int type, std::shared_ptr<const Payload> payload) {
  if (to == deps_.self) {
    Message self_msg;
    self_msg.from = deps_.self;
    self_msg.to = deps_.self;
    self_msg.type = type;
    self_msg.payload = std::move(payload);
    HandleMessage(self_msg);
  } else {
    deps_.transport->Send(deps_.self, to, type, std::move(payload));
  }
}

void KvService::SendWriteAck(NodeId coordinator, uint64_t op_id) {
  std::shared_ptr<KvResponsePayload> resp = NewResponse();
  resp->op_id = op_id;
  resp->ack = true;
  SendTo(coordinator, kKvWriteResp, std::move(resp));
}

void KvService::ScheduleWalSync() {
  if (wal_sync_timer_ != kInvalidTimer) {
    return;
  }
  wal_sync_timer_ = deps_.clock->ScheduleAfter(deps_.config.wal_sync_interval, [this] {
    wal_sync_timer_ = kInvalidTimer;
    SyncWal();
  });
}

void KvService::SyncWal() {
  if (down_) {
    return;  // the crash already dropped the tail and the pending acks
  }
  int64_t synced = wal_.Sync();
  if (synced > 0) {
    ++stats_.wal_syncs;
    stats_.wal_bytes += synced;
  }
  // Group commit: every write that made it into this sync acks together.
  sending_acks_.swap(pending_acks_);
  for (const PendingAck& ack : sending_acks_) {
    SendWriteAck(ack.coordinator, ack.op_id);
  }
  sending_acks_.clear();
}

void KvService::SendReplicaWrite(NodeId target, uint64_t key,
                                 const std::string& value, int64_t timestamp) {
  std::shared_ptr<KvRequestPayload> req = NewRequest();
  req->op_id = 0;  // fire-and-forget: the replica's ack finds no in-flight op
  req->key = key;
  req->value = value;
  req->timestamp = timestamp;
  SendTo(target, kKvWriteReq, std::move(req));
}

void KvService::QueueHint(NodeId target, uint64_t key, const std::string& value,
                          int64_t timestamp) {
  if (deps_.config.hint_limit == 0) {
    return;
  }
  if (total_hints_ >= static_cast<int64_t>(deps_.config.hint_limit)) {
    // Bounded queue: shedding new hints under sustained replica death is the
    // flood-control the hinted-handoff experiments probe.
    ++stats_.hints_dropped;
    return;
  }
  Hint hint;
  hint.key = key;
  hint.value = value;
  hint.timestamp = timestamp;
  hint.expires_at = deps_.clock->Now() + deps_.config.hint_ttl;
  hint_bytes_ += 64 + static_cast<int64_t>(value.size());
  hints_[target].push_back(std::move(hint));
  ++total_hints_;
  ++stats_.hints_queued;
  MaybeRecharge();
}

void KvService::OnReplicaAlive(NodeId target) {
  if (down_) {
    return;
  }
  auto it = hints_.find(target);
  if (it == hints_.end()) {
    return;
  }
  std::deque<Hint> hints = std::move(it->second);
  hints_.erase(it);
  total_hints_ -= static_cast<int64_t>(hints.size());
  VirtualTime now = deps_.clock->Now();
  for (const Hint& hint : hints) {
    hint_bytes_ -= 64 + static_cast<int64_t>(hint.value.size());
    if (now >= hint.expires_at) {
      ++stats_.hints_expired;
      continue;
    }
    // The hint carries the ORIGINAL write timestamp, so replaying after a
    // newer write to the same key is a no-op under last-write-wins —
    // replay is idempotent.
    SendReplicaWrite(target, hint.key, hint.value, hint.timestamp);
    ++stats_.hints_replayed;
  }
  MaybeRecharge();
}

void KvService::MaybeReadRepair(const InFlight& op) {
  if (op.read_timestamp < 0) {
    return;  // no replica had the key — nothing to converge toward
  }
  bool mismatch = false;
  for (const auto& [replica, version] : op.read_versions) {
    if (version < op.read_timestamp) {
      mismatch = true;
      break;
    }
  }
  if (mismatch) {
    // Blocking flavour: an observed stale responder is repaired before the
    // read returns (the client's value is already the winning version, so
    // the repair write cannot change this read's result).
    for (const auto& [replica, version] : op.read_versions) {
      if (version < op.read_timestamp) {
        SendReplicaWrite(replica, op.key, op.read_value, op.read_timestamp);
        ++stats_.read_repairs;
      }
    }
    return;
  }
  // Background flavour: every responder agreed, but replicas that never
  // answered may be behind. Probabilistically push the winning version to
  // them (deterministic draw: one per mismatch-free successful read).
  if (repair_rng_.UniformDouble() >= kReadRepairChance) {
    return;
  }
  for (NodeId target : op.targets) {
    bool responded = false;
    for (const auto& [replica, version] : op.read_versions) {
      if (replica == target) {
        responded = true;
        break;
      }
    }
    if (!responded) {
      SendReplicaWrite(target, op.key, op.read_value, op.read_timestamp);
      ++stats_.read_repairs;
    }
  }
}

void KvService::StreamRepairKeys(
    NodeId target, std::vector<std::pair<uint64_t, int64_t>> keys,
    std::function<void(int64_t, int64_t)> done) {
  // One shared state keeps both stage closures small enough to stay inline.
  struct Stream {
    std::vector<std::pair<uint64_t, int64_t>> items;
    std::vector<std::shared_ptr<KvRequestPayload>> payloads;
    std::function<void(int64_t, int64_t)> done;
  };
  auto stream = std::make_shared<Stream>();
  stream->items = std::move(keys);
  stream->done = std::move(done);
  deps_.stage->Submit(
      "kv.repair-stream",
      [this, stream] {
        WorkUnits work = 0;
        for (const auto& [key, ts] : stream->items) {
          WorkUnits read_work = 0;
          auto value = storage_->Get(key, &read_work);
          work += read_work + 20;
          if (!value.has_value()) {
            continue;  // the tree was ahead of storage; nothing to send
          }
          std::shared_ptr<KvRequestPayload> req = NewRequest();
          req->op_id = 0;  // fire-and-forget, like hint replay
          req->key = key;
          req->value = *std::move(value);
          // The CURRENT version, not the hashed one: if a foreground write
          // landed since the hashes were compared, the newer version is the
          // better repair and LWW keeps it correct either way.
          req->timestamp = storage_->TimestampOf(key);
          stream->payloads.push_back(std::move(req));
        }
        return work;
      },
      [this, target, stream] {
        if (down_) {
          if (stream->done) {
            stream->done(0, 0);
          }
          return;
        }
        int64_t bytes = 0;
        for (auto& req : stream->payloads) {
          bytes += static_cast<int64_t>(req->SizeBytes());
          deps_.transport->Send(deps_.self, target, kKvRepairStreamWrite,
                                std::move(req));
        }
        if (stream->done) {
          stream->done(bytes, static_cast<int64_t>(stream->payloads.size()));
        }
      });
}

void KvService::OnCrash() {
  down_ = true;
  if (wal_sync_timer_ != kInvalidTimer) {
    deps_.clock->CancelTimer(wal_sync_timer_);
    wal_sync_timer_ = kInvalidTimer;
  }
  // Un-acked group-commit candidates die with the process: their coordinators
  // never see an ack, which is exactly why losing the unsynced tail is safe.
  pending_acks_.clear();
  // The hint queue is volatile coordinator state.
  hints_.clear();
  total_hints_ = 0;
  hint_bytes_ = 0;
  if (deps_.config.wal) {
    stats_.wal_lost_records += wal_.DropUnsynced();
    // Process memory is gone; only the durable WAL prefix survives.
    storage_ = std::make_unique<StorageEngine>();
  }
  if (repair_ != nullptr) {
    // Active sessions die with the process (counted as aborted); the Merkle
    // tree follows the storage engine's fate.
    repair_->Stop();
    if (deps_.config.wal) {
      repair_->ClearTree();
    }
  }
  // The machine's ReleaseAll dropped our "kv-storage" charge with the rest.
  charged_bytes_ = 0;
}

void KvService::OnRestart() {
  down_ = false;
  if (deps_.config.wal) {
    KvWal::RecoverResult recovered = KvWal::Recover(wal_.DurableImage());
    CHECK(recovered.damage.ok())
        << "own durable WAL failed recovery:" << recovered.damage.ToString();
    storage_ = std::make_unique<StorageEngine>();
    for (const KvWal::Record& rec : recovered.records) {
      storage_->Put(rec.key, rec.value, rec.timestamp);
      if (repair_ != nullptr) {
        repair_->OnWriteApplied(rec.key, rec.timestamp);
      }
    }
    stats_.wal_recovered_records +=
        static_cast<int64_t>(recovered.records.size());
  }
  if (repair_ != nullptr) {
    repair_->Start();
  }
  MaybeRecharge();
}

void KvService::MaybeRecharge() {
  if (!deps_.charge) {
    return;
  }
  int64_t total = storage_->ApproxBytes() + hint_bytes_;
  if (deps_.config.wal) {
    total += wal_.total_bytes();
  }
  if (repair_ != nullptr) {
    total += repair_->ApproxBytes();
  }
  int64_t delta = total - charged_bytes_;
  if (delta != 0) {
    charged_bytes_ = total;
    deps_.charge(delta);
  }
}

}  // namespace scalecheck
