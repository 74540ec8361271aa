// The coordinator's attempts in flight, by op id.
//
// KvService hands out op ids in increasing order and finishes attempts in
// roughly that order, so the live ids always lie in a window
// [base, next) that is short next to the run: the oldest live attempt ends
// by its timeout. InflightTable keeps that window in a power-of-two ring of
// slots indexed by id & mask. A finished attempt frees its slot, base moves
// past any freed prefix, and the ring doubles only when the window outgrows
// it, so a warm coordinator registers and finishes attempts without touching
// the heap — the slots, and whatever capacity their values hold (replica
// lists, read buffers), are reused by later attempts.
//
// Id 0 is never issued (fire-and-forget replica writes carry it), and Find
// returns null for 0, for an id already finished and for one not yet
// issued, so a late or stray response finds nothing.

#ifndef SCALECHECK_SRC_KV_INFLIGHT_TABLE_H_
#define SCALECHECK_SRC_KV_INFLIGHT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace scalecheck {

template <typename T>
class InflightTable {
 public:
  // Issues the next id and returns it with its slot's value. The value is
  // whatever a finished attempt left there (or default-constructed): the
  // caller overwrites every field it reads.
  std::pair<uint64_t, T*> Insert() {
    if (next_ - base_ >= slots_.size()) {
      Grow();
    }
    const uint64_t id = next_++;
    Slot& slot = slots_[id & mask_];
    slot.id = id;
    ++live_;
    return {id, &slot.value};
  }

  // The live attempt `id`, or null.
  T* Find(uint64_t id) {
    if (id < base_ || id >= next_) {
      return nullptr;
    }
    Slot& slot = slots_[id & mask_];
    return slot.id == id ? &slot.value : nullptr;
  }

  // Frees live attempt `id`'s slot; its value keeps its capacity.
  void Erase(uint64_t id) {
    Slot& slot = slots_[id & mask_];
    CHECK(id >= base_ && id < next_ && slot.id == id) << "no live op" << id;
    slot.id = 0;
    --live_;
    while (base_ < next_ && slots_[base_ & mask_].id != base_) {
      ++base_;
    }
  }

  // Live attempts.
  size_t size() const { return live_; }
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    uint64_t id = 0;  // 0 when free
    T value;
  };

  // Doubles the ring (from 8 on first use), moving each live slot to its
  // place under the new mask.
  void Grow() {
    const size_t size = slots_.empty() ? 8 : slots_.size() * 2;
    std::vector<Slot> grown(size);
    for (Slot& slot : slots_) {
      if (slot.id != 0) {
        grown[slot.id & (size - 1)] = std::move(slot);
      }
    }
    slots_ = std::move(grown);
    mask_ = size - 1;
  }

  std::vector<Slot> slots_;
  uint64_t mask_ = 0;
  uint64_t base_ = 1;  // no live id is below base_
  uint64_t next_ = 1;  // the next id Insert issues
  size_t live_ = 0;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_KV_INFLIGHT_TABLE_H_
