// Recycling pool for network payload objects.
//
// Gossip sends three payloads per exchange, and the SYN digest vector alone
// is O(N); allocating fresh vectors every round dominates the allocator at
// large N. PayloadPool hands out shared_ptr<T> whose deleter Clear()s the
// object and parks it on a free list instead of destroying it, so the
// payload's internal buffers (vector capacity in particular) are reused by
// the next send. The pool state is itself shared-ptr-owned, so payloads in
// flight may safely outlive the pool (a crashed sender, or the cluster's
// teardown before its simulator's queued events).
//
// Single-threaded by design: each pool belongs to one simulated cluster
// (GossipPayloadPools in cluster.h), shared by all its nodes. A simulator
// runs one event at a time on one host thread, and simulator runs never share
// payloads across host threads.

#ifndef SCALECHECK_SRC_SIM_PAYLOAD_POOL_H_
#define SCALECHECK_SRC_SIM_PAYLOAD_POOL_H_

#include <cstdint>
#include <memory>
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
    return std::shared_ptr<T>(raw, Recycler{state_});
  }

  uint64_t reuses() const { return state_->reuses; }
  uint64_t allocs() const { return state_->allocs; }

 private:
  struct State {
    std::vector<std::unique_ptr<T>> parked;
    size_t max_parked = kMaxParked;
    uint64_t reuses = 0;
    uint64_t allocs = 0;
  };

  struct Recycler {
    std::shared_ptr<State> state;
    void operator()(T* obj) const {
      if (state->parked.size() < state->max_parked) {
        obj->Clear();
        state->parked.emplace_back(obj);
      } else {
        delete obj;
      }
    }
  };

  std::shared_ptr<State> state_;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_SIM_PAYLOAD_POOL_H_
