// The PIL boundary: where a function either runs for real or "takes the PIL".
//
// PilBoundary::Apply appends steps to a Job that realize one of three modes
// for an offending-function invocation (Figure 2):
//
//   kDirect   run the real computation, charge its work to the CPU model.
//             Used by real-scale and basic-colocation runs.
//   kMemoize  like kDirect, but record (input digest -> output, uncontended
//             CPU duration) into the MemoStore — Figure 2-d, the one-time
//             contended run.
//   kReplay   look the input digest up in the MemoStore; on a hit, sleep()
//             for the recorded duration (zero CPU — other nodes do not feel
//             this function at all) and apply the recorded output —
//             Figure 2-e/f. On a miss (replay divergence), fall back to
//             computing the output directly but still *sleep* for the
//             modelled duration rather than charging CPU, and count the miss.
//
// Crucially the boundary preserves the *local* blocking structure: the job's
// surrounding Lock/Unlock steps still happen, so a C5456-style coarse lock is
// held across the sleep exactly as it was held across the computation. PIL
// removes cross-node CPU contention, not local semantics.

#ifndef SCALECHECK_SRC_PIL_BOUNDARY_H_
#define SCALECHECK_SRC_PIL_BOUNDARY_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/hash.h"
#include "src/common/types.h"
#include "src/pil/function_registry.h"
#include "src/pil/memo_store.h"
#include "src/sim/thread.h"

namespace scalecheck {

enum class PilMode : int {
  kDirect = 0,
  kMemoize = 1,
  kReplay = 2,
};

const char* PilModeName(PilMode mode);

// What to do when a replay lookup misses (the run has diverged from the
// memoized run and the Processing Illusion is no longer exact):
//   kFallbackToModelled  compute the output, sleep the modelled duration,
//                        extend the memo DB — the historical behavior; the
//                        divergence is still counted in the drift report.
//   kWarn                same as fallback, but the run's fidelity verdict is
//                        downgraded to `degraded` so the drift is visible in
//                        every report built on top.
//   kStrict              record the drift and stop the simulation: a
//                        diverged replay must never masquerade as a faithful
//                        one. The run's verdict becomes `invalid`.
enum class ReplayPolicy : int {
  kFallbackToModelled = 0,
  kWarn = 1,
  kStrict = 2,
};

const char* ReplayPolicyName(ReplayPolicy policy);

// Everything known about the first replay divergence of a run, for debugging
// which call went off-script and when.
struct DriftReport {
  uint64_t misses = 0;
  bool diverged = false;
  bool aborted = false;  // the strict policy stopped the run
  PilFunctionId first_function = kInvalidPilFunction;
  DigestValue first_digest;
  VirtualTime first_at;
  // Replay calls (hits + misses) issued before the first diverging one.
  uint64_t first_call_index = 0;
};

class PilBoundary {
 public:
  struct ComputeOutput {
    std::vector<uint8_t> output;
    WorkUnits work = 0;
  };

  struct Stats {
    uint64_t direct_runs = 0;
    uint64_t memoized_runs = 0;
    uint64_t replay_hits = 0;
    uint64_t replay_misses = 0;
  };

  // `core_speed` converts work units to uncontended CPU duration (it must be
  // the core speed of the machines the durations will be replayed against).
  PilBoundary(Simulator* sim, PilMode mode, MemoStore* store, double core_speed);

  PilMode mode() const { return mode_; }
  MemoStore* store() const { return store_; }
  const Stats& stats() const { return stats_; }

  // Replay-divergence handling. Only consulted in kReplay mode.
  void set_replay_policy(ReplayPolicy policy) { replay_policy_ = policy; }
  ReplayPolicy replay_policy() const { return replay_policy_; }
  const DriftReport& drift() const { return drift_; }

  // Appends boundary steps to `job`:
  //   digest_fn   evaluated at step start; hashes the function input
  //   compute_fn  the real computation (output bytes + counted work)
  //   apply_fn    consumes the output (from computation or memo)
  void Apply(Job* job, PilFunctionId function,
             std::function<DigestValue()> digest_fn,
             std::function<ComputeOutput()> compute_fn,
             std::function<void(const std::vector<uint8_t>& output, bool from_memo)>
                 apply_fn);

  VirtualDuration WorkToDuration(WorkUnits work) const {
    return VirtualDuration::FromSecondsF(static_cast<double>(work) / core_speed_);
  }

 private:
  void RecordDivergence(PilFunctionId function, const DigestValue& digest);

  Simulator* sim_;
  PilMode mode_;
  MemoStore* store_;
  double core_speed_;
  Stats stats_;
  ReplayPolicy replay_policy_ = ReplayPolicy::kFallbackToModelled;
  DriftReport drift_;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_PIL_BOUNDARY_H_
