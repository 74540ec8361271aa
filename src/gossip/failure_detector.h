// The phi accrual failure detector (Hayashibara et al., SRDS'04), as adopted
// by Cassandra for its scalability properties [29 in the paper].
//
// For each monitored endpoint we keep a sliding window of heartbeat
// inter-arrival intervals. Under the exponential-arrival simplification that
// Cassandra uses, the suspicion level is
//
//     phi(t_now) = (t_now - t_last) / mean_interval * log10(e)
//
// and an endpoint is convicted when phi exceeds a threshold (Cassandra
// default: 8). The paper's §3 observation is crucial here: the *detector* is
// provably scalable, but its input — heartbeat dissemination — degrades when
// gossip stages are starved by scale-dependent computation. The detector then
// faithfully reports flaps. The bug is global, not in this class.
//
// Layout: the profile at N=384 put ~34% of a run inside Report/Phi — almost
// all of it std::map node walks and std::deque chunk chasing, not arithmetic.
// The per-endpoint table is a dense vector indexed by NodeId (ids are dense
// by construction; see src/common/interner.h).
//
// There is one window per (observer, peer) pair, N^2 in a cluster, so the
// window is the harness's largest per-pair holder. It is an exact FIFO of
// 32-bit slots in 64-byte chunks (a next pointer and 14 slots):
//
//   * an interval is stored as its integer nanoseconds, the value
//     VirtualDuration holds, and turned back into seconds on eviction as
//     static_cast<double>(ns) / 1e9, which is what VirtualDuration::seconds()
//     computes, so the evicted double is bit-identical to the one added;
//   * an interval outside [0, 2^32 - 2] ns (about 4.29 s or longer, as flap
//     gaps are) is an escape slot followed by two slots holding its 64 bits;
//   * chunks come from the detector's IntervalPool (4 KiB slabs, a free
//     list), a full window pops its head and pushes at its tail, and Forget
//     hands the chunks back, so a window never copies or doubles.
//
// The running sum is updated add-then-subtract in the same order as the ring
// of doubles it replaced, and Phi reads only the sum and the count, so phi
// values and conviction times stay bit-identical. The pool is host memory
// only: like the vector before it, it is not charged to MemoryModel, since
// a charge would move Colo verdicts.

#ifndef SCALECHECK_SRC_GOSSIP_FAILURE_DETECTOR_H_
#define SCALECHECK_SRC_GOSSIP_FAILURE_DETECTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/types.h"

namespace scalecheck {

// log10(e): converts the exponential-CDF surprise to the phi scale.
inline constexpr double kPhiFactor = 0.4342944819032518;

// Fixed 64-byte chunks for the arrival windows of one detector, carved from
// 4 KiB slabs (one pool per node, so slabs stay small) and recycled through a
// free list. Chunks on the free list are poisoned under ASan, so a slot read
// after its chunk was recycled is reported. Slabs are freed with the pool.
class IntervalPool {
 public:
  static constexpr size_t kSlotsPerChunk = 14;
  struct Chunk {
    Chunk* next;
    uint32_t slots[kSlotsPerChunk];
  };
  static constexpr size_t kSlabBytes = 4096;
  static constexpr size_t kChunksPerSlab = kSlabBytes / sizeof(Chunk);

  IntervalPool() = default;
  IntervalPool(const IntervalPool&) = delete;
  IntervalPool& operator=(const IntervalPool&) = delete;
  ~IntervalPool();

  // A chunk whose next is null; its slots are unset.
  Chunk* Get();
  void Put(Chunk* chunk);

  // Host bytes of the slabs allocated so far.
  size_t slab_bytes() const { return slabs_.size() * kSlabBytes; }

 private:
  Chunk* free_ = nullptr;
  std::vector<std::unique_ptr<Chunk[]>> slabs_;
};

static_assert(sizeof(IntervalPool::Chunk) == 64, "a chunk is a pointer and 14 slots");

// The FIFO of a window's last max_samples intervals. Chunks are taken from
// and given back to `pool`, which must outlive the window's last Add; the
// destructor does not touch the pool (Release does), so a detector may
// destroy its pool before its windows.
class ArrivalWindow {
 public:
  ArrivalWindow(size_t max_samples, VirtualDuration initial_interval, IntervalPool* pool);
  ArrivalWindow(ArrivalWindow&&) noexcept = default;
  ArrivalWindow& operator=(ArrivalWindow&&) noexcept = default;
  ArrivalWindow(const ArrivalWindow&) = delete;
  ArrivalWindow& operator=(const ArrivalWindow&) = delete;

  // Records a heartbeat arrival. Inline: called once per heartbeat applied,
  // ~10M times in a two-minute N=384 run; the out-of-line call was the
  // single largest line in the flat profile after the layout overhaul.
  void Add(VirtualTime now) {
    if (has_arrival_) {
      VirtualDuration interval = now - last_;
      sum_ += interval.seconds();
      if (count_ < max_samples_) {
        ++count_;
      } else {
        // Full: evict the oldest, in the same add-then-subtract order the
        // deque implementation used (sum_ arithmetic must stay bit-identical).
        // Popping first lets the push reuse a chunk the pop freed.
        sum_ -= PopSeconds();
      }
      Push(interval.nanos());
    }
    last_ = now;
    has_arrival_ = true;
  }

  // Suspicion level at `now`; 0.0 before any arrival. Inline: the FD sweep
  // evaluates it for every (node, peer) pair every round — O(N^2) calls.
  double Phi(VirtualTime now) const {
    if (!has_arrival_) {
      return 0.0;
    }
    double elapsed = (now - last_).seconds();
    if (elapsed <= 0.0) {
      return 0.0;
    }
    double mean = sum_ / static_cast<double>(count_);
    if (mean <= 0.0) {
      return 0.0;
    }
    return kPhiFactor * elapsed / mean;
  }

  // Hands the window's chunks back to its pool; the window must not be used
  // afterwards.
  void Release();

  double MeanIntervalSeconds() const;
  VirtualTime last_arrival() const { return last_; }
  bool has_arrivals() const { return has_arrival_; }
  size_t sample_count() const { return count_; }

 private:
  // Marks an interval stored in the two slots that follow (low, high word).
  static constexpr uint32_t kEscape = 0xFFFFFFFFu;

  void Push(int64_t ns) {
    if (static_cast<uint64_t>(ns) < kEscape) {
      PushSlot(static_cast<uint32_t>(ns));
    } else {
      PushSlot(kEscape);
      PushSlot(static_cast<uint32_t>(static_cast<uint64_t>(ns)));
      PushSlot(static_cast<uint32_t>(static_cast<uint64_t>(ns) >> 32));
    }
  }

  double PopSeconds() {
    uint32_t slot = PopSlot();
    int64_t ns = slot;
    if (slot == kEscape) {
      uint64_t low = PopSlot();
      uint64_t high = PopSlot();
      ns = static_cast<int64_t>(high << 32 | low);
    }
    return static_cast<double>(ns) / 1e9;  // == VirtualDuration::seconds()
  }

  void PushSlot(uint32_t value) {
    if (tail_slot_ == IntervalPool::kSlotsPerChunk) {
      IntervalPool::Chunk* chunk = pool_->Get();
      tail_->next = chunk;
      tail_ = chunk;
      tail_slot_ = 0;
    }
    tail_->slots[tail_slot_++] = value;
  }

  // Never empties the FIFO: a full window holds at least two samples, so the
  // head chunk is retired only when a later chunk holds the rest.
  uint32_t PopSlot() {
    uint32_t value = head_->slots[head_slot_++];
    if (head_slot_ == IntervalPool::kSlotsPerChunk) {
      IntervalPool::Chunk* done = head_;
      head_ = head_->next;
      head_slot_ = 0;
      pool_->Put(done);
    }
    return value;
  }

  IntervalPool* pool_;
  IntervalPool::Chunk* head_;  // oldest slot is head_->slots[head_slot_]
  IntervalPool::Chunk* tail_;  // next slot is tail_->slots[tail_slot_]
  double sum_ = 0.0;
  VirtualTime last_;
  uint32_t max_samples_;
  uint32_t count_ = 0;
  uint8_t head_slot_ = 0;
  uint8_t tail_slot_ = 0;
  bool has_arrival_ = false;
};

// One engaged-or-not slot per (observer, peer) pair: no larger than the
// vector-backed window it replaced.
static_assert(sizeof(std::optional<ArrivalWindow>) <= 80, "a window table slot grew");

class PhiAccrualFailureDetector {
 public:
  struct Config {
    double threshold = 8.0;
    size_t window_size = 1000;
    // Priming interval for a fresh window (Cassandra primes with a bootstrap
    // interval so brand-new peers are not instantly convicted).
    VirtualDuration initial_interval = VirtualDuration::Seconds(1);
    // Arrivals closer than this are ignored (version churn within one round).
    VirtualDuration min_interval = VirtualDuration::Millis(10);
  };

  explicit PhiAccrualFailureDetector(const Config& config)
      : config_(config), pool_(std::make_unique<IntervalPool>()) {}

  // Heartbeat progress observed for `endpoint`. Inline for the common case
  // (known endpoint, non-duplicate); the cold resize/emplace path stays in
  // the .cc.
  void Report(NodeId endpoint, VirtualTime now) {
    size_t index = static_cast<size_t>(endpoint);
    if (endpoint < 0 || index >= windows_.size() || !windows_[index]) {
      ReportSlow(endpoint, now);
      return;
    }
    ArrivalWindow& window = *windows_[index];
    // Suppress duplicate reports within the same instant/round.
    if (window.has_arrivals() &&
        now - window.last_arrival() < config_.min_interval) {
      return;
    }
    window.Add(now);
  }

  // Current suspicion level (0.0 for unknown endpoints).
  double Phi(NodeId endpoint, VirtualTime now) const {
    const ArrivalWindow* window = WindowOf(endpoint);
    return window == nullptr ? 0.0 : window->Phi(now);
  }

  // phi(now) > threshold?
  bool IsConvicted(NodeId endpoint, VirtualTime now) const {
    return Phi(endpoint, now) > config_.threshold;
  }

  // Forgets an endpoint (decommissioned / removed).
  void Forget(NodeId endpoint);

  bool IsMonitoring(NodeId endpoint) const {
    return WindowOf(endpoint) != nullptr;
  }
  const Config& config() const { return config_; }
  // Host bytes of the windows' chunk slabs (not charged to MemoryModel).
  size_t window_bytes() const { return pool_->slab_bytes(); }

 private:
  // Unknown-endpoint path of Report: grows the table and primes a window.
  void ReportSlow(NodeId endpoint, VirtualTime now);

  const ArrivalWindow* WindowOf(NodeId endpoint) const {
    size_t index = static_cast<size_t>(endpoint);
    if (endpoint < 0 || index >= windows_.size() || !windows_[index]) {
      return nullptr;
    }
    return &*windows_[index];
  }

  Config config_;
  // Heap-held, so the windows' pool pointers survive a move of the detector.
  // Declared before windows_: a move-assignment (ProtocolNode::Restart)
  // destroys the old pool before the old windows, whose destructors do not
  // touch it.
  std::unique_ptr<IntervalPool> pool_;
  // Dense NodeId-indexed table; disengaged slots are unmonitored endpoints.
  std::vector<std::optional<ArrivalWindow>> windows_;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_GOSSIP_FAILURE_DETECTOR_H_
