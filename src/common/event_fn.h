// Small-buffer-optimized move-only callables: EventFn for simulator events
// and substrate timers (src/transport/substrate.h), and the step callable of
// a simulated Job (src/sim/thread.h). Lives in common/ so the transport seam
// can use it without depending on the simulator.
//
// Every scheduled event used to carry a std::function<void()>, which
// heap-allocates for any capture beyond ~16 bytes and requires the callable
// to be copyable. SmallFn<R(Args...), N> stores up to N bytes of capture
// state inline (EventFn's 64 hold every hot callback in the tree, including
// the network-delivery closure that carries a whole Message), falls back to
// the heap only for oversized or throwing-move callables, and is move-only —
// so callbacks may own move-only resources, and by construction are never
// copied between scheduling and execution.
//
// The inline buffer is aligned to kAlign (max_align_t by default). A
// pointer-aligned SmallFn wastes no padding after its buffer, so a
// SmallFn<..., 32, alignof(void*)> is 40 bytes and rides inline in a 40-byte
// Job step (the Stage closures of src/transport/substrate.h).

#ifndef SCALECHECK_SRC_COMMON_EVENT_FN_H_
#define SCALECHECK_SRC_COMMON_EVENT_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace scalecheck {

template <typename Signature, size_t kInline,
          size_t kAlign = alignof(std::max_align_t)>
class SmallFn;

template <typename R, typename... Args, size_t kInline, size_t kAlign>
class SmallFn<R(Args...), kInline, kAlign> {
 public:
  // Callables up to this size and alignment (with a non-throwing move) live
  // inline; larger ones are boxed.
  static constexpr size_t kInlineBytes = kInline;
  static_assert(kAlign >= alignof(void*) && kAlign <= alignof(std::max_align_t));

  SmallFn() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, SmallFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  SmallFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= kAlign &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = InlineOps<D>();
    } else {
      *reinterpret_cast<D**>(static_cast<void*>(storage_)) =
          new D(std::forward<F>(fn));
      ops_ = HeapOps<D>();
    }
  }

  SmallFn(SmallFn&& other) noexcept { MoveFrom(&other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(&other);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { Reset(); }

  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Destroys the held callable — and everything it captures — immediately.
  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  // True when the callable lives in the inline buffer (or the fn is empty);
  // exposed so tests can pin down which captures stay allocation-free.
  bool is_inline() const noexcept {
    return ops_ == nullptr || ops_->inline_stored;
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-constructs into `to` from `from` and destroys the source.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool inline_stored;
  };

  template <typename D>
  static const Ops* InlineOps() {
    static constexpr Ops ops = {
        [](void* s, Args&&... args) -> R {
          return (*static_cast<D*>(s))(std::forward<Args>(args)...);
        },
        [](void* from, void* to) noexcept {
          D* src = static_cast<D*>(from);
          ::new (to) D(std::move(*src));
          src->~D();
        },
        [](void* s) noexcept { static_cast<D*>(s)->~D(); },
        true,
    };
    return &ops;
  }

  template <typename D>
  static const Ops* HeapOps() {
    static constexpr Ops ops = {
        [](void* s, Args&&... args) -> R {
          return (**static_cast<D**>(s))(std::forward<Args>(args)...);
        },
        [](void* from, void* to) noexcept {
          *static_cast<D**>(to) = *static_cast<D**>(from);
        },
        [](void* s) noexcept { delete *static_cast<D**>(s); },
        false,
    };
    return &ops;
  }

  void MoveFrom(SmallFn* other) noexcept {
    ops_ = other->ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other->storage_, storage_);
      other->ops_ = nullptr;
    }
  }

  alignas(kAlign) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

// Sized to hold the network-delivery closure (a Message plus the model
// pointer) without touching the heap.
using EventFn = SmallFn<void(), 64>;

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_COMMON_EVENT_FN_H_
