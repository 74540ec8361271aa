// The simulator's pending-event set.
//
// Events are ordered by (time, sequence). The sequence number is a global
// monotonically increasing counter assigned at scheduling time, which makes
// event ordering — and therefore the whole simulation — fully deterministic
// even when many events share a timestamp.
//
// Implementation: an index-addressable 4-ary min-heap of small POD entries
// {time, id, slot} laid over a slab of pooled event slots. Callbacks live in
// the slots and never move during heap sifts (the heap shuffles 24-byte PODs,
// not closures); freed slots are recycled through a free list so steady-state
// scheduling allocates nothing. Each slot records its heap position and a
// flat open-addressing id→slot table gives O(1) id lookup, so Cancel is a
// true O(log n) heap removal that destroys the callback — and everything it
// captures — immediately, with no tombstones retained in the heap.

#ifndef SCALECHECK_SRC_SIM_EVENT_QUEUE_H_
#define SCALECHECK_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "src/common/event_fn.h"
#include "src/common/types.h"

namespace scalecheck {

using EventId = uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules fn at time t. Returns an id usable with Cancel().
  EventId Schedule(VirtualTime t, EventFn fn);

  // Cancels a pending event. Returns false if the event already fired or was
  // already cancelled. The callback (and its captures) is released before
  // this returns.
  bool Cancel(EventId id);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Time of the earliest live event. Requires !empty().
  VirtualTime NextTime() const;

  // Pops and returns the earliest live event's callback. Requires !empty().
  // Sets *t to the event's timestamp. The callback is moved out, never
  // copied (EventFn is move-only).
  EventFn Pop(VirtualTime* t);

  uint64_t total_scheduled() const { return next_id_ - 1; }
  uint64_t total_cancelled() const { return cancelled_; }

  // High-water mark of the pooled slot slab — how many distinct callback
  // slots were ever allocated (everything beyond this is reuse).
  size_t slot_high_water() const { return slots_.size(); }

 private:
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  struct HeapEntry {
    int64_t time_ns;
    EventId id;
    uint32_t slot;
  };

  struct Slot {
    EventFn fn;
    uint32_t heap_pos = 0;
    uint32_t next_free = kNoSlot;
  };

  // Flat open-addressing EventId→slot map: linear probing, power-of-two
  // capacity, backward-shift deletion. Ids are never 0, so 0 marks an empty
  // cell.
  class IdSlotMap {
   public:
    void Insert(EventId id, uint32_t slot);
    // Removes id and returns its slot, or kNoSlot if absent.
    uint32_t FindAndErase(EventId id);

   private:
    struct Cell {
      EventId id = 0;
      uint32_t slot = 0;
    };

    size_t Mask() const { return cells_.size() - 1; }
    static size_t HashId(EventId id) {
      return static_cast<size_t>(id * 0x9e3779b97f4a7c15ull);
    }
    void Grow();

    std::vector<Cell> cells_;
    size_t size_ = 0;
  };

  static bool EntryLess(const HeapEntry& a, const HeapEntry& b) {
    if (a.time_ns != b.time_ns) {
      return a.time_ns < b.time_ns;
    }
    return a.id < b.id;
  }

  void Place(size_t pos, const HeapEntry& e);
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  // Removes the entry at heap position pos, restoring the heap invariant.
  void RemoveHeapAt(size_t pos);
  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
  IdSlotMap ids_;
  EventId next_id_ = 1;
  uint64_t cancelled_ = 0;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_SIM_EVENT_QUEUE_H_
