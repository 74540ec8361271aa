// Fidelity guardrails for colocated scale-check runs.
//
// §8 of the paper reports that single-machine colocation silently stops being
// faithful past a limit: "CPU utilization, memory exhaustion, or event
// lateness" destroy the timing fidelity of the run while the harness keeps
// producing numbers that *look* valid. The FidelityGuard turns that silent
// cliff into an explicit, budgeted verdict: it periodically probes the
// machine models during a run and classifies the run as
//
//   ok        — every budget respected; results trustworthy,
//   degraded  — a soft budget crossed; results directionally useful but the
//               measured latencies/timings carry colocation skew,
//   invalid   — a hard budget crossed (or OOM, replay divergence under the
//               strict policy, or the host watchdog fired); results must not
//               be used as evidence.
//
// The verdict is monotonic (ok -> degraded -> invalid, never back) and the
// report records, per budget, the *first* virtual timestamp at which each
// severity was crossed — so a sweep over N can show exactly where fidelity
// breaks. All probing happens in virtual time on deterministic model state;
// given the same (config, seed) the report serializes to identical bytes.
// Only the watchdog reads the host clock, and a run it stops is never
// serialized.

#ifndef SCALECHECK_SRC_SIM_FIDELITY_GUARD_H_
#define SCALECHECK_SRC_SIM_FIDELITY_GUARD_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace scalecheck {

class JsonWriter;
class MachineSet;
class PeriodicClockTimer;
class Simulator;

enum class FidelityVerdict : int {
  kOk = 0,
  kDegraded = 1,
  kInvalid = 2,
};

const char* FidelityVerdictName(FidelityVerdict v);

// Per-run budgets. Each metric has a degraded and an invalid threshold; for
// "upper" budgets (lateness, CPU) a sample above the limit
// violates it, for memory headroom a sample below. Defaults encode the
// paper's §8 limits: lateness p99 past ~2s or an OOM is exactly where the
// Nome testbed's colocation results stopped matching real-scale runs.
struct FidelityBudgets {
  bool enabled = true;

  // How often the guard samples the machine models (virtual time).
  VirtualDuration probe_period = VirtualDuration::Seconds(5);

  // Event lateness across machines (LatenessTracker p99 / max).
  VirtualDuration lateness_p99_degraded = VirtualDuration::Millis(500);
  VirtualDuration lateness_p99_invalid = VirtualDuration::Seconds(2);
  VirtualDuration lateness_max_degraded = VirtualDuration::Seconds(5);
  VirtualDuration lateness_max_invalid = VirtualDuration::Seconds(20);

  // Busiest-machine CPU utilization over [0, now].
  double cpu_util_degraded = 0.90;
  double cpu_util_invalid = 0.98;

  // Tightest-machine memory headroom (fraction of capacity free). An
  // observed OOM is always invalid, independent of these thresholds.
  double memory_headroom_degraded = 0.20;
  double memory_headroom_invalid = 0.05;
};

// First crossing of one (budget, severity) pair.
struct FidelityViolation {
  std::string budget;
  FidelityVerdict severity = FidelityVerdict::kDegraded;
  VirtualTime first_at;  // virtual time of the first crossing
  double observed = 0.0;  // sampled value at that crossing
  double limit = 0.0;     // the budget it crossed
};

struct FidelityReport {
  FidelityVerdict verdict = FidelityVerdict::kOk;
  // The budget whose violation raised the verdict to its final value, and
  // the virtual time at which that happened. Empty / zero while verdict==ok.
  std::string violated_budget;
  VirtualTime first_violation_at;
  // First crossing of every (budget, severity) pair, in detection order.
  std::vector<FidelityViolation> violations;

  void WriteJson(JsonWriter* w) const;
  std::string ToJson() const;
};

class FidelityGuard {
 public:
  // `machines` must outlive the guard. The guard schedules its probes on
  // `sim` once Arm() is called.
  FidelityGuard(Simulator* sim, MachineSet* machines, const FidelityBudgets& budgets);
  ~FidelityGuard();
  FidelityGuard(const FidelityGuard&) = delete;
  FidelityGuard& operator=(const FidelityGuard&) = delete;

  // Starts periodic probing.
  void Arm();
  void Disarm();

  // Samples the machine models immediately. Called by the periodic timer and
  // once more at collection time so violations that only materialize at the
  // very end of the horizon are still caught.
  void Probe();

  // Records an externally detected violation (replay divergence, watchdog
  // expiry, OOM at its exact instant). Idempotent per (budget, severity):
  // only the first report of a pair is kept.
  void ReportViolation(const std::string& budget, FidelityVerdict severity,
                       double observed, double limit, VirtualTime at);

  const FidelityReport& report() const { return report_; }
  const FidelityBudgets& budgets() const { return budgets_; }

 private:
  // `lower_is_bad` flips the comparison for headroom-style budgets. A limit
  // of 0 disables that threshold for upper budgets.
  void CheckUpper(const char* budget, double observed, double degraded_limit,
                  double invalid_limit, VirtualTime at);
  void CheckLower(const char* budget, double observed, double degraded_limit,
                  double invalid_limit, VirtualTime at);

  Simulator* sim_;
  MachineSet* machines_;
  FidelityBudgets budgets_;
  FidelityReport report_;
  std::unique_ptr<PeriodicClockTimer> timer_;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_SIM_FIDELITY_GUARD_H_
