// A small LSM-flavoured storage engine: an in-memory memtable that flushes
// into immutable sorted runs. Deliberately simple — the scalability bugs
// under study live in the control plane — but real enough that the data path
// examples exercise actual storage state, and that per-node memory
// accounting has something to charge. The memtable is a hash (entries in
// arrival order behind an open-addressing index); Flush sorts it into a run.
//
// Data-space emulation (§4's Exalt [34], whose insight PIL generalizes):
// with `emulate_data_space` set, user data is "compressed to zero bytes"
// — only sizes and timestamps are retained, and reads synthesize content of
// the recorded size. "How data is processed is not affected by the content
// of the data being written, but only by its size": CPU costs and all
// control-flow stay identical while the colocation memory footprint of the
// data path collapses.

#ifndef SCALECHECK_SRC_KV_STORAGE_ENGINE_H_
#define SCALECHECK_SRC_KV_STORAGE_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace scalecheck {

class StorageEngine {
 public:
  struct Config {
    // Memtable flush threshold (entries).
    size_t memtable_limit = 4096;
    // Background compaction triggers at this many runs.
    size_t compaction_fanin = 4;
    // Exalt-style zero-byte data emulation (sizes recorded, content dropped).
    bool emulate_data_space = false;
  };

  StorageEngine() : StorageEngine(Config{}) {}
  explicit StorageEngine(Config config) : config_(config) {}
  virtual ~StorageEngine() = default;

  // The data-path operations are virtual so tests can substitute a
  // deliberately broken engine (KvService::ReplaceStorageForTest) and prove
  // the KV history checker catches real storage bugs.
  //
  // Last write wins: a write older than the stored version of its key, in
  // the memtable or in a flushed run, is dropped (its cost is still charged).
  // Returns the CPU work units the operation cost (charged by the caller).
  virtual WorkUnits Put(uint64_t key, std::string value, int64_t timestamp);
  // Latest value by timestamp, searching memtable then runs newest-first.
  virtual std::optional<std::string> Get(uint64_t key, WorkUnits* work) const;
  // Timestamp of the stored version (0 if absent). Used by quorum reads to
  // resolve the newest replica value.
  virtual int64_t TimestampOf(uint64_t key) const;

  size_t memtable_entries() const { return memtable_.size(); }
  size_t num_runs() const { return runs_.size(); }
  int64_t total_entries() const { return total_entries_; }
  uint64_t flushes() const { return flushes_; }
  uint64_t compactions() const { return compactions_; }

  // Approximate heap bytes, for the machine memory model.
  int64_t ApproxBytes() const;

 private:
  struct Entry {
    std::string value;      // empty when emulating data space
    size_t value_size = 0;  // always the true size
    int64_t timestamp = 0;
  };
  using Run = std::vector<std::pair<uint64_t, Entry>>;  // sorted by key

  // The index slot holding `key`, or the empty slot where it would go.
  size_t SlotOf(uint64_t key) const;
  // Keeps the index at most half full for one more entry.
  void ReserveSlot();
  // The newest flushed version of `key`, searching runs newest-first; adds
  // the per-run probe cost to `work` when given. Non-virtual, so Put's LWW
  // check adds no call to the timed data-path operations.
  const Entry* FindInRuns(uint64_t key, WorkUnits* work) const;
  void Flush();
  void MaybeCompact();

  Config config_;
  Run memtable_;  // in arrival order until Flush sorts it
  // Open addressing with linear probing over a power-of-two table: each slot
  // is a memtable_ position + 1, 0 when empty. Allocated on the first Put.
  std::vector<uint32_t> index_;
  int index_shift_ = 64;  // 64 - log2(index_.size())
  std::vector<Run> runs_;  // newest last
  int64_t total_entries_ = 0;
  int64_t bytes_ = 0;
  uint64_t flushes_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_KV_STORAGE_ENGINE_H_
