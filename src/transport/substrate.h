// The substrate seam: the narrow API protocol code is allowed to touch.
//
// Everything above this seam — Gossiper, FailureDetector, ring maintenance,
// KvService, and the node wiring that drives them — speaks only to these
// three interfaces:
//
//   Transport  send/receive of framed messages between endpoints
//   Clock      now / schedule / cancel (and the periodic timer built on it)
//   Stage      a single-threaded executor that charges replica CPU work
//
// Everything below the seam is a carrier. Two exist:
//
//   Simulator/SimTransport/SimStage (src/sim/simulator.h,
//     src/transport/sim_substrate.h): the deterministic Simulator is the
//     Clock, and thin adapters put NetworkModel and SimThread behind the
//     other two. Byte-identical to the pre-seam direct calls — every
//     Schedule/Send forwards 1:1, so event ids, RNG streams, memoize/replay
//     and ChaosSearch behavior are unchanged (tests/sim_golden_test.cc pins
//     this).
//
//   TcpTransport/RealClock/RealStage (src/net/): a threaded localhost TCP
//     carrier with real sockets and real wall-clock timers. The same protocol
//     translation units link against it unmodified — that is the whole point.
//
// Times above the seam are VirtualTime in both modes: the simulator's virtual
// clock, or the real steady clock re-based to the run's start. Protocol code
// cannot tell the difference, which is exactly the property that makes the
// phi failure detector, retry deadlines, and hybrid KV timestamps carry over.

#ifndef SCALECHECK_SRC_TRANSPORT_SUBSTRATE_H_
#define SCALECHECK_SRC_TRANSPORT_SUBSTRATE_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "src/common/event_fn.h"
#include "src/common/types.h"
#include "src/transport/message.h"

namespace scalecheck {

// Identifies a pending timer. In sim mode this is the simulator's EventId
// (both are dense uint64 handles with 0 invalid), so the Simulator hands out
// its event ids as timer ids without translation.
using TimerId = uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

// Scheduling and time. Implementations fire callbacks one at a time from the
// carrier's execution context (the simulator event loop, or the real timer
// thread); callers needing mutual exclusion with message handlers wrap the
// clock (see SerializedClock in src/net/real_clock.h).
class Clock {
 public:
  virtual ~Clock() = default;

  virtual VirtualTime Now() const = 0;

  // Schedules fn after a non-negative delay; returns an id for CancelTimer.
  virtual TimerId ScheduleAfter(VirtualDuration d, EventFn fn) = 0;

  // Cancels a pending timer; returns false if it already fired (or never
  // existed). After a true return the callback will not run.
  virtual bool CancelTimer(TimerId id) = 0;
};

// Message transport between endpoints. Delivery is FIFO per (sender,
// receiver) pair — TCP connection semantics, which the simulated carrier
// models with a monotone per-pair delivery clamp and the real carrier gets
// from an actual per-pair TCP connection. Messages to an unregistered
// endpoint are dropped (crashed process / connection refused).
class Transport {
 public:
  using Handler = std::function<void(const Message&)>;

  virtual ~Transport() = default;

  virtual void RegisterNode(NodeId node, Handler handler) = 0;
  virtual void UnregisterNode(NodeId node) = 0;

  // Sends a framed message; returns its id (0 if dropped at send time).
  virtual uint64_t Send(NodeId from, NodeId to, int type,
                        std::shared_ptr<const Payload> payload) = 0;
};

// A single-threaded replica-work executor: runs `op` (which returns the CPU
// work it performed), charges that work to the carrier's notion of CPU, then
// runs `done`. Sim mode maps this onto a SimThread Job (Compute(op), Run(done)
// — the virtual CPU model stretches the burst under colocation contention);
// real mode executes inline, where the work is charged by physics.
//
// Both callables are move-only SmallFns holding up to 32 bytes of capture
// inline (a `this`, a shared_ptr and one more word). Pointer-aligned, each is
// 40 bytes, which is exactly what a Job step holds inline, so a replica job
// whose captures fit allocates nothing on SimStage (sim_substrate.cc asserts
// the fit). A capture over 32 bytes still works; it is boxed on the heap.
class Stage {
 public:
  using OpFn = SmallFn<WorkUnits(), 32, alignof(void*)>;
  using DoneFn = SmallFn<void(), 32, alignof(void*)>;

  virtual ~Stage() = default;

  virtual void Submit(const char* label, OpFn op, DoneFn done) = 0;
};

// A repeating timer over the Clock seam: fires fn every `period` starting
// after `initial_delay`, re-arming before it invokes fn, so fn may Stop() it.
// Cancelable, and safe to destroy while armed. The one periodic timer on both
// carriers: over the Simulator its firings are ordinary simulator events.
class PeriodicClockTimer {
 public:
  PeriodicClockTimer(Clock* clock, VirtualDuration period, std::function<void()> fn);
  ~PeriodicClockTimer();
  PeriodicClockTimer(const PeriodicClockTimer&) = delete;
  PeriodicClockTimer& operator=(const PeriodicClockTimer&) = delete;

  // Starts (or restarts) the timer; first firing after `initial_delay`.
  void Start(VirtualDuration initial_delay);
  void Stop();
  bool armed() const { return armed_; }

 private:
  void Fire();

  Clock* clock_;
  VirtualDuration period_;
  std::function<void()> fn_;
  TimerId pending_ = kInvalidTimer;
  bool armed_ = false;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_TRANSPORT_SUBSTRATE_H_
