#include "src/gossip/failure_detector.h"

#include <sanitizer/asan_interface.h>

#include <cmath>
#include <limits>

#include "src/common/check.h"

namespace scalecheck {

IntervalPool::~IntervalPool() {
  for (std::unique_ptr<Chunk[]>& slab : slabs_) {
    ASAN_UNPOISON_MEMORY_REGION(slab.get(), kSlabBytes);
  }
}

IntervalPool::Chunk* IntervalPool::Get() {
  if (free_ == nullptr) {
    // A new slab goes onto the free list whole, last chunk first, so its
    // chunks are handed out in address order.
    slabs_.push_back(std::make_unique_for_overwrite<Chunk[]>(kChunksPerSlab));
    for (size_t i = kChunksPerSlab; i > 0; --i) {
      Put(&slabs_.back()[i - 1]);
    }
  }
  Chunk* chunk = free_;
  ASAN_UNPOISON_MEMORY_REGION(chunk, sizeof(Chunk));
  free_ = chunk->next;
  chunk->next = nullptr;
  return chunk;
}

void IntervalPool::Put(Chunk* chunk) {
  chunk->next = free_;
  free_ = chunk;
  ASAN_POISON_MEMORY_REGION(chunk, sizeof(Chunk));
}

ArrivalWindow::ArrivalWindow(size_t max_samples, VirtualDuration initial_interval,
                             IntervalPool* pool)
    : pool_(pool),
      head_(pool->Get()),
      tail_(head_),
      max_samples_(static_cast<uint32_t>(max_samples < 2 ? 2 : max_samples)) {
  CHECK_GT(max_samples, 0u);
  CHECK_LE(max_samples, std::numeric_limits<uint32_t>::max());
  // Prime with two synthetic samples so the first real interval does not
  // dominate the mean. A capacity below the priming pair would let count_
  // exceed the ring; the deque implementation effectively kept the two most
  // recent samples in that case, which max_samples_ >= 2 reproduces.
  Push(initial_interval.nanos());
  Push(initial_interval.nanos());
  count_ = 2;
  sum_ = 2.0 * initial_interval.seconds();
}

void ArrivalWindow::Release() {
  IntervalPool::Chunk* chunk = head_;
  while (chunk != nullptr) {
    IntervalPool::Chunk* next = chunk->next;
    pool_->Put(chunk);
    chunk = next;
  }
  head_ = nullptr;
  tail_ = nullptr;
}

double ArrivalWindow::MeanIntervalSeconds() const {
  CHECK_GT(count_, 0u);
  return sum_ / static_cast<double>(count_);
}

void PhiAccrualFailureDetector::ReportSlow(NodeId endpoint, VirtualTime now) {
  CHECK_GE(endpoint, 0);
  size_t index = static_cast<size_t>(endpoint);
  if (index >= windows_.size()) {
    windows_.resize(index + 1);
  }
  std::optional<ArrivalWindow>& slot = windows_[index];
  CHECK(!slot);  // the inline fast path handles engaged slots
  slot.emplace(config_.window_size, config_.initial_interval, pool_.get());
  slot->Add(now);
}

void PhiAccrualFailureDetector::Forget(NodeId endpoint) {
  size_t index = static_cast<size_t>(endpoint);
  if (endpoint >= 0 && index < windows_.size() && windows_[index]) {
    windows_[index]->Release();
    windows_[index].reset();
  }
}

}  // namespace scalecheck
