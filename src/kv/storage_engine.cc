#include "src/kv/storage_engine.h"

#include <algorithm>
#include <bit>
#include <iterator>

#include "src/common/check.h"

namespace scalecheck {

WorkUnits StorageEngine::Put(uint64_t key, std::string value, int64_t timestamp) {
  // Costs depend on the SIZE of the data, not its content — which is exactly
  // why data-space emulation preserves behaviour (§4).
  WorkUnits work = 1500 + static_cast<WorkUnits>(value.size());
  size_t value_size = value.size();
  if (config_.emulate_data_space) {
    value.clear();  // "compressed to zero byte on disk (but the size is recorded)"
  }
  ReserveSlot();
  uint32_t& slot = index_[SlotOf(key)];
  if (slot == 0) {
    // Last write wins across a flush too: a late write older than the
    // version already in a run would otherwise shadow it from the memtable.
    const Entry* flushed = FindInRuns(key, nullptr);
    if (flushed != nullptr && timestamp < flushed->timestamp) {
      return work;
    }
    bytes_ += static_cast<int64_t>(value.size()) + 48;
    ++total_entries_;
    memtable_.emplace_back(key, Entry{std::move(value), value_size, timestamp});
    slot = static_cast<uint32_t>(memtable_.size());
  } else if (Entry& current = memtable_[slot - 1].second; timestamp >= current.timestamp) {
    bytes_ += static_cast<int64_t>(value.size()) -
              static_cast<int64_t>(current.value.size());
    current = Entry{std::move(value), value_size, timestamp};
  }
  if (memtable_.size() >= config_.memtable_limit) {
    Flush();
    work += static_cast<WorkUnits>(config_.memtable_limit) * 40;
  }
  return work;
}

std::optional<std::string> StorageEngine::Get(uint64_t key, WorkUnits* work) const {
  CHECK_NOTNULL(work);
  *work = 2000;
  const uint32_t slot = index_.empty() ? 0 : index_[SlotOf(key)];
  const Entry* found_entry =
      slot != 0 ? &memtable_[slot - 1].second : FindInRuns(key, work);
  if (found_entry == nullptr) {
    return std::nullopt;
  }
  *work += static_cast<WorkUnits>(found_entry->value_size) / 4;
  if (config_.emulate_data_space) {
    // Synthesize content of the recorded size.
    return std::string(found_entry->value_size, 'x');
  }
  return found_entry->value;
}

int64_t StorageEngine::TimestampOf(uint64_t key) const {
  const uint32_t slot = index_.empty() ? 0 : index_[SlotOf(key)];
  if (slot != 0) {
    return memtable_[slot - 1].second.timestamp;
  }
  const Entry* flushed = FindInRuns(key, nullptr);
  return flushed != nullptr ? flushed->timestamp : 0;
}

const StorageEngine::Entry* StorageEngine::FindInRuns(uint64_t key,
                                                      WorkUnits* work) const {
  // Newest run first.
  for (auto run = runs_.rbegin(); run != runs_.rend(); ++run) {
    if (work != nullptr) {
      *work += 200;  // bloom/index probe stand-in
    }
    auto found = std::lower_bound(
        run->begin(), run->end(), key,
        [](const std::pair<uint64_t, Entry>& e, uint64_t k) { return e.first < k; });
    if (found != run->end() && found->first == key) {
      return &found->second;
    }
  }
  return nullptr;
}

size_t StorageEngine::SlotOf(uint64_t key) const {
  // Fibonacci hashing: the top bits of key * 2^64/phi spread dense integer
  // keys across the table.
  const size_t mask = index_.size() - 1;
  size_t i = static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> index_shift_);
  while (index_[i] != 0 && memtable_[index_[i] - 1].first != key) {
    i = (i + 1) & mask;
  }
  return i;
}

void StorageEngine::ReserveSlot() {
  if ((memtable_.size() + 1) * 2 <= index_.size()) {
    return;
  }
  const size_t capacity = std::max<size_t>(16, index_.size() * 2);
  index_.assign(capacity, 0);
  index_shift_ = 64 - std::countr_zero(capacity);
  for (size_t pos = 0; pos < memtable_.size(); ++pos) {
    index_[SlotOf(memtable_[pos].first)] = static_cast<uint32_t>(pos + 1);
  }
}

void StorageEngine::Flush() {
  std::sort(memtable_.begin(), memtable_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  runs_.push_back(std::move(memtable_));
  memtable_.clear();
  std::fill(index_.begin(), index_.end(), 0);
  ++flushes_;
  MaybeCompact();
}

void StorageEngine::MaybeCompact() {
  if (runs_.size() < config_.compaction_fanin) {
    return;
  }
  // Merge all runs oldest first; the merge is stable, so each key's versions
  // stay in run order and the fold below lets the newer run win ties.
  auto by_key = [](const auto& a, const auto& b) { return a.first < b.first; };
  Run merged;
  for (Run& run : runs_) {
    const auto middle = static_cast<std::ptrdiff_t>(merged.size());
    std::move(run.begin(), run.end(), std::back_inserter(merged));
    std::inplace_merge(merged.begin(), merged.begin() + middle, merged.end(), by_key);
  }
  // Newest value per key wins.
  size_t kept = 0;
  for (size_t i = 0; i < merged.size(); ++i) {
    if (kept > 0 && merged[kept - 1].first == merged[i].first) {
      if (merged[i].second.timestamp >= merged[kept - 1].second.timestamp) {
        merged[kept - 1] = std::move(merged[i]);
      }
    } else {
      if (kept != i) {
        merged[kept] = std::move(merged[i]);
      }
      ++kept;
    }
  }
  merged.erase(merged.begin() + static_cast<std::ptrdiff_t>(kept), merged.end());
  merged.shrink_to_fit();
  runs_.clear();
  runs_.push_back(std::move(merged));
  total_entries_ = static_cast<int64_t>(kept + memtable_.size());
  ++compactions_;
}

int64_t StorageEngine::ApproxBytes() const {
  return bytes_ + static_cast<int64_t>(runs_.size()) * 1024;
}

}  // namespace scalecheck
