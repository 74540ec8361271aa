#include "src/kv/kv_history.h"

#include <algorithm>

#include "src/common/check.h"

namespace scalecheck {

uint64_t KvHistory::RecordIssued(NodeId coordinator, bool is_write,
                                 uint64_t key, const std::string& value,
                                 VirtualTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  KvOpRecord rec;
  rec.id = static_cast<uint64_t>(ops_.size());
  rec.coordinator = coordinator;
  rec.is_write = is_write;
  rec.key = key;
  rec.value = value;
  rec.issued_at = now;
  ops_.push_back(std::move(rec));
  return ops_.back().id;
}

void KvHistory::RecordWriteAcked(uint64_t id, int64_t write_timestamp,
                                 const std::vector<NodeId>& ackers) {
  std::lock_guard<std::mutex> lock(mu_);
  CHECK_LT(id, ops_.size());
  KvOpRecord& rec = ops_[id];
  CHECK(rec.is_write) << "write ack recorded for a read";
  rec.write_timestamp = write_timestamp;
  rec.ackers = ackers;
}

void KvHistory::RecordConcluded(uint64_t id, KvOutcome outcome,
                                const std::string& result_value,
                                VirtualTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  CHECK_LT(id, ops_.size());
  KvOpRecord& rec = ops_[id];
  CHECK(!rec.concluded) << "KV op concluded twice";
  rec.concluded = true;
  rec.outcome = outcome;
  rec.result_value = result_value;
  rec.concluded_at = conclusion_order_.empty()
                         ? now
                         : std::max(now, ops_[conclusion_order_.back()].concluded_at);
  conclusion_order_.push_back(id);
}

}  // namespace scalecheck
