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
  auto op = std::make_shared<ClientOp>();
  op->is_write = is_write;
  op->key = key;
  op->value = std::move(value);
  op->done = std::move(done);
  op->started = deps_.clock->Now();
  op->deadline_at = op->started + kRequestDeadline;
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
  Attempt(std::move(op));
}

void KvService::Attempt(std::shared_ptr<ClientOp> op) {
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
  StartOp(op,
          [this, op](KvOutcome outcome, std::string value) {
            OnAttemptDone(op, outcome, std::move(value));
          },
          timeout);
}

void KvService::OnAttemptDone(const std::shared_ptr<ClientOp>& op, KvOutcome outcome,
                              std::string value) {
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

void KvService::Conclude(const std::shared_ptr<ClientOp>& op, KvOutcome outcome,
                         std::string value) {
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
    if (op->is_write && outcome == KvOutcome::kOk) {
      deps_.history->RecordWriteAcked(op->history_id, op->write_timestamp,
                                      op->ackers);
    }
    deps_.history->RecordConcluded(op->history_id, outcome, value,
                                   deps_.clock->Now());
  }
  if (op->done) {
    op->done(outcome, std::move(value));
  }
}

void KvService::StartOp(const std::shared_ptr<ClientOp>& op, DoneFn attempt_done,
                        VirtualDuration timeout) {
  const bool is_write = op->is_write;
  const uint64_t key = op->key;
  if (deps_.ring->num_entries() == 0) {
    attempt_done(KvOutcome::kUnavailable, "");
    return;
  }
  std::vector<NodeId> replicas = deps_.ring->NaturalEndpointsForKey(
      KvTokenForKey(key), deps_.replication_factor);
  std::vector<NodeId> live;
  std::vector<NodeId> dead;
  for (NodeId replica : replicas) {
    if (replica == deps_.self || deps_.gossiper->IsAlive(replica)) {
      live.push_back(replica);
    } else {
      dead.push_back(replica);
    }
  }
  if (static_cast<int>(live.size()) < RequiredAcks()) {
    // The §2 user impact: replicas convicted by the flapping failure
    // detector are skipped, so the operation cannot reach its ack threshold.
    attempt_done(KvOutcome::kUnavailable, "");
    return;
  }

  uint64_t op_id = next_op_++;
  InFlight& inflight = inflight_[op_id];
  inflight.client = op;
  inflight.is_write = is_write;
  inflight.key = key;
  inflight.needed = RequiredAcks();
  inflight.outstanding = static_cast<int>(live.size());
  inflight.targets = live;
  inflight.started = deps_.clock->Now();
  inflight.done = std::move(attempt_done);
  inflight.timeout_timer = deps_.clock->ScheduleAfter(timeout, [this, op_id] {
    auto it = inflight_.find(op_id);
    if (it == inflight_.end()) {
      return;
    }
    it->second.timeout_timer = kInvalidTimer;
    Finish(op_id, KvOutcome::kTimeout, "");
  });

  // Hybrid timestamp: virtual time in the high bits, coordinator id in the
  // low bits, clamped monotonic per coordinator. Comparable across
  // coordinators, so last-write-wins read resolution agrees with the real
  // order in which quorum writes were issued.
  clock_counter_ = std::max<int64_t>(
      clock_counter_ + 1, deps_.clock->Now().nanos() * 1024 +
                              (static_cast<int64_t>(deps_.self) & 1023));
  int64_t timestamp = clock_counter_;
  if (is_write) {
    op->write_timestamp = timestamp;
    // Hinted handoff: the write is proceeding without the convicted
    // replicas, so remember their copy for replay when they come back.
    for (NodeId replica : dead) {
      QueueHint(replica, key, op->value, timestamp);
    }
  }
  for (NodeId replica : live) {
    auto req = std::make_shared<KvRequestPayload>();
    req->op_id = op_id;
    req->key = key;
    req->value = op->value;
    req->timestamp = timestamp;
    if (replica == deps_.self) {
      // Local replica: apply on our own stage without the network hop.
      Message self_msg;
      self_msg.from = deps_.self;
      self_msg.to = deps_.self;
      self_msg.type = is_write ? kKvWriteReq : kKvReadReq;
      self_msg.payload = req;
      HandleMessage(self_msg);
    } else {
      deps_.transport->Send(deps_.self, replica, is_write ? kKvWriteReq : kKvReadReq,
                          std::move(req));
    }
  }
}

void KvService::HandleMessage(const Message& msg) {
  switch (msg.type) {
    case kKvWriteReq: {
      auto req = std::static_pointer_cast<const KvRequestPayload>(msg.payload);
      NodeId coordinator = msg.from;
      deps_.stage->Submit(
          "kv.write-replica",
          [this, req] {
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
          [this, req, coordinator] {
            const bool fire_and_forget = req->op_id == 0;
            if (!deps_.config.wal) {
              if (!fire_and_forget) {
                SendWriteAck(coordinator, req->op_id);
              }
            } else {
              if (!fire_and_forget) {
                if (deps_.plant_ack_before_sync) {
                  // PLANTED BUG: acking here, before the group commit, is
                  // the ack-before-fsync mistake — a crash inside the sync
                  // window silently loses an acknowledged write.
                  SendWriteAck(coordinator, req->op_id);
                } else {
                  pending_acks_.push_back(PendingAck{coordinator, req->op_id});
                }
              }
              ScheduleWalSync();
            }
            MaybeRecharge();
          });
      break;
    }
    case kKvReadReq: {
      auto req = std::static_pointer_cast<const KvRequestPayload>(msg.payload);
      NodeId coordinator = msg.from;
      auto value = std::make_shared<std::optional<std::string>>();
      auto version = std::make_shared<int64_t>(0);
      deps_.stage->Submit(
          "kv.read-replica",
          [this, req, value, version] {
            WorkUnits work = 0;
            *value = storage_->Get(req->key, &work);
            *version = storage_->TimestampOf(req->key);
            return work;
          },
          [this, req, coordinator, value, version] {
            auto resp = std::make_shared<KvResponsePayload>();
            resp->op_id = req->op_id;
            resp->ack = true;
            resp->found = value->has_value();
            resp->timestamp = *version;
            resp->value = value->value_or("");
            if (coordinator == deps_.self) {
              Message self_msg;
              self_msg.from = deps_.self;
              self_msg.to = deps_.self;
              self_msg.type = kKvReadResp;
              self_msg.payload = resp;
              HandleMessage(self_msg);
            } else {
              deps_.transport->Send(deps_.self, coordinator, kKvReadResp,
                                    std::move(resp));
            }
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
          [this, req] {
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
      auto resp = std::static_pointer_cast<const KvResponsePayload>(msg.payload);
      auto it = inflight_.find(resp->op_id);
      if (it == inflight_.end()) {
        return;  // already finished, or a fire-and-forget (op_id 0) ack
      }
      InFlight& op = it->second;
      --op.outstanding;
      if (resp->ack) {
        ++op.acks;
        op.ack_from.push_back(msg.from);
        if (!op.is_write) {
          op.read_versions.emplace_back(msg.from,
                                        resp->found ? resp->timestamp : 0);
        }
        // Quorum read resolution: the newest version wins (last-write-wins
        // by coordinator timestamp, as the write path orders them).
        if (resp->found && resp->timestamp > op.read_timestamp) {
          op.read_timestamp = resp->timestamp;
          op.read_value = resp->value;
        }
      }
      if (op.acks >= op.needed) {
        Finish(resp->op_id, KvOutcome::kOk, op.read_value);
      } else if (op.outstanding == 0) {
        Finish(resp->op_id, KvOutcome::kTimeout, "");
      }
      break;
    }
    default:
      CHECK(false) << "not a KV message type" << msg.type;
  }
}

void KvService::Finish(uint64_t op_id, KvOutcome outcome, std::string value) {
  auto it = inflight_.find(op_id);
  CHECK(it != inflight_.end());
  InFlight op = std::move(it->second);
  inflight_.erase(it);
  if (op.timeout_timer != kInvalidTimer) {
    deps_.clock->CancelTimer(op.timeout_timer);
  }
  if (outcome == KvOutcome::kOk) {
    if (op.is_write) {
      // The durability audit trail: which replicas this ack rests on.
      op.client->ackers = op.ack_from;
    } else {
      MaybeReadRepair(op);
    }
  }
  // Outcome accounting happens at the client-request layer (Conclude), so a
  // retried attempt's failure is not double-counted.
  if (op.done) {
    op.done(outcome, std::move(value));
  }
}

void KvService::SendWriteAck(NodeId coordinator, uint64_t op_id) {
  auto resp = std::make_shared<KvResponsePayload>();
  resp->op_id = op_id;
  resp->ack = true;
  if (coordinator == deps_.self) {
    Message self_msg;
    self_msg.from = deps_.self;
    self_msg.to = deps_.self;
    self_msg.type = kKvWriteResp;
    self_msg.payload = resp;
    HandleMessage(self_msg);
  } else {
    deps_.transport->Send(deps_.self, coordinator, kKvWriteResp,
                          std::move(resp));
  }
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
  std::vector<PendingAck> acks;
  acks.swap(pending_acks_);
  for (const PendingAck& ack : acks) {
    SendWriteAck(ack.coordinator, ack.op_id);
  }
}

void KvService::SendReplicaWrite(NodeId target, uint64_t key,
                                 const std::string& value, int64_t timestamp) {
  auto req = std::make_shared<KvRequestPayload>();
  req->op_id = 0;  // fire-and-forget: the replica's ack finds no in-flight op
  req->key = key;
  req->value = value;
  req->timestamp = timestamp;
  if (target == deps_.self) {
    Message self_msg;
    self_msg.from = deps_.self;
    self_msg.to = deps_.self;
    self_msg.type = kKvWriteReq;
    self_msg.payload = req;
    HandleMessage(self_msg);
  } else {
    deps_.transport->Send(deps_.self, target, kKvWriteReq, std::move(req));
  }
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
  auto items = std::make_shared<std::vector<std::pair<uint64_t, int64_t>>>(
      std::move(keys));
  auto payloads =
      std::make_shared<std::vector<std::shared_ptr<KvRequestPayload>>>();
  deps_.stage->Submit(
      "kv.repair-stream",
      [this, items, payloads] {
        WorkUnits work = 0;
        for (const auto& [key, ts] : *items) {
          WorkUnits read_work = 0;
          auto value = storage_->Get(key, &read_work);
          work += read_work + 20;
          if (!value.has_value()) {
            continue;  // the tree was ahead of storage; nothing to send
          }
          auto req = std::make_shared<KvRequestPayload>();
          req->op_id = 0;  // fire-and-forget, like hint replay
          req->key = key;
          req->value = *std::move(value);
          // The CURRENT version, not the hashed one: if a foreground write
          // landed since the hashes were compared, the newer version is the
          // better repair and LWW keeps it correct either way.
          req->timestamp = storage_->TimestampOf(key);
          payloads->push_back(std::move(req));
        }
        return work;
      },
      [this, target, payloads, done = std::move(done)] {
        if (down_) {
          if (done) {
            done(0, 0);
          }
          return;
        }
        int64_t bytes = 0;
        for (auto& req : *payloads) {
          bytes += static_cast<int64_t>(req->SizeBytes());
          deps_.transport->Send(deps_.self, target, kKvRepairStreamWrite,
                                std::move(req));
        }
        if (done) {
          done(bytes, static_cast<int64_t>(payloads->size()));
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
