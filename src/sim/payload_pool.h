// Recycling pool for network payload objects.
//
// Gossip sends three payloads per exchange, and the SYN digest vector alone
// is O(N); allocating fresh vectors every round dominates the allocator at
// large N. PayloadPool hands out shared_ptr<T> whose deleter Clear()s the
// object and parks it on a free list instead of destroying it, so the
// payload's internal buffers (vector capacity in particular) are reused by
// the next send. The shared_ptr control blocks are recycled too: they come
// from an allocator that parks freed blocks on the pool's list, so a warm
// Acquire/release cycle allocates nothing. The pool state is itself
// shared-ptr-owned, and each control block's allocator holds a reference, so
// payloads in flight may safely outlive the pool (a crashed sender, or the
// cluster's teardown before its simulator's queued events).
//
// Single-threaded by design: each pool belongs to one simulated cluster
// (GossipPayloadPools in cluster.h), shared by all its nodes. A simulator
// runs one event at a time on one host thread, and simulator runs never share
// payloads across host threads.

#ifndef SCALECHECK_SRC_SIM_PAYLOAD_POOL_H_
#define SCALECHECK_SRC_SIM_PAYLOAD_POOL_H_

#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace scalecheck {

template <typename T>
class PayloadPool {
 public:
  // The default bound on the parked-object list; beyond the bound, returned
  // payloads are simply destroyed. Parked payloads keep their capacity, so
  // the bound caps the idle memory a pool holds (GossipPayloadPools sets a
  // larger one where payloads are small).
  static constexpr size_t kMaxParked = 16;

  explicit PayloadPool(size_t max_parked = kMaxParked)
      : state_(std::make_shared<State>()) {
    state_->max_parked = max_parked;
  }

  // Returns a cleared T. The pointer behaves like any shared_ptr<T>; when
  // the last reference drops, the object is recycled into this pool.
  std::shared_ptr<T> Acquire() {
    std::unique_ptr<T> obj;
    if (!state_->parked.empty()) {
      obj = std::move(state_->parked.back());
      state_->parked.pop_back();
      ++state_->reuses;
    } else {
      obj = std::make_unique<T>();
      ++state_->allocs;
    }
    T* raw = obj.release();
    return std::shared_ptr<T>(raw, Recycler{state_.get()}, BlockAlloc<T>(state_));
  }

  uint64_t reuses() const { return state_->reuses; }
  uint64_t allocs() const { return state_->allocs; }

 private:
  // A freed control block, linked through its own storage.
  struct FreeBlock {
    FreeBlock* next;
  };

  struct State {
    State() = default;
    State(const State&) = delete;
    State& operator=(const State&) = delete;
    ~State() {
      while (free_blocks != nullptr) {
        FreeBlock* block = free_blocks;
        free_blocks = block->next;
        ::operator delete(block);
      }
    }

    std::vector<std::unique_ptr<T>> parked;
    size_t max_parked = kMaxParked;
    uint64_t reuses = 0;
    uint64_t allocs = 0;
    // Every block on the list has the size of the one control-block type
    // Acquire creates, so it never holds more blocks than were live at once.
    FreeBlock* free_blocks = nullptr;
  };

  // Runs inside the control block, whose allocator keeps `state` alive.
  struct Recycler {
    State* state;
    void operator()(T* obj) const {
      if (state->parked.size() < state->max_parked) {
        obj->Clear();
        state->parked.emplace_back(obj);
      } else {
        delete obj;
      }
    }
  };

  // The control-block allocator. shared_ptr rebinds it to its one block type
  // and allocates a single block per payload, so single-block requests come
  // from and go back to the state's free list.
  template <typename U>
  struct BlockAlloc {
    using value_type = U;

    explicit BlockAlloc(std::shared_ptr<State> s) : state(std::move(s)) {}
    template <typename V>
    BlockAlloc(const BlockAlloc<V>& other) : state(other.state) {}

    U* allocate(size_t n) {
      static_assert(sizeof(U) >= sizeof(FreeBlock) &&
                    alignof(U) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
      if (n == 1 && state->free_blocks != nullptr) {
        FreeBlock* block = state->free_blocks;
        state->free_blocks = block->next;
        return static_cast<U*>(static_cast<void*>(block));
      }
      return static_cast<U*>(::operator new(n * sizeof(U)));
    }
    void deallocate(U* p, size_t n) {
      if (n != 1) {
        ::operator delete(p);
        return;
      }
      state->free_blocks = ::new (static_cast<void*>(p)) FreeBlock{state->free_blocks};
    }
    template <typename V>
    bool operator==(const BlockAlloc<V>& other) const {
      return state == other.state;
    }

    std::shared_ptr<State> state;
  };

  std::shared_ptr<State> state_;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_SIM_PAYLOAD_POOL_H_
