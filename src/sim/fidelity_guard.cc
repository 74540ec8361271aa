#include "src/sim/fidelity_guard.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/transport/substrate.h"

namespace scalecheck {

const char* FidelityVerdictName(FidelityVerdict v) {
  switch (v) {
    case FidelityVerdict::kOk:
      return "ok";
    case FidelityVerdict::kDegraded:
      return "degraded";
    case FidelityVerdict::kInvalid:
      return "invalid";
  }
  return "?";
}

void FidelityReport::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("verdict", FidelityVerdictName(verdict));
  w->Field("violated_budget", violated_budget);
  w->Field("first_violation_at_ns", first_violation_at.nanos());
  w->Key("violations").BeginArray();
  for (const FidelityViolation& v : violations) {
    w->BeginObject();
    w->Field("budget", v.budget);
    w->Field("severity", FidelityVerdictName(v.severity));
    w->Field("first_at_ns", v.first_at.nanos());
    w->Field("observed", v.observed);
    w->Field("limit", v.limit);
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

std::string FidelityReport::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.str();
}

FidelityGuard::FidelityGuard(Simulator* sim, MachineSet* machines,
                             const FidelityBudgets& budgets)
    : sim_(sim), machines_(machines), budgets_(budgets) {
  CHECK_NOTNULL(sim_);
  CHECK_NOTNULL(machines_);
}

FidelityGuard::~FidelityGuard() = default;

void FidelityGuard::Arm() {
  if (!timer_) {
    timer_ = std::make_unique<PeriodicClockTimer>(sim_, budgets_.probe_period,
                                                  [this] { Probe(); });
  }
  timer_->Start(budgets_.probe_period);
}

void FidelityGuard::Disarm() {
  if (timer_) {
    timer_->Stop();
  }
}

void FidelityGuard::ReportViolation(const std::string& budget,
                                    FidelityVerdict severity, double observed,
                                    double limit, VirtualTime at) {
  for (const FidelityViolation& v : report_.violations) {
    if (v.budget == budget && v.severity == severity) {
      return;  // only the first crossing of a (budget, severity) pair counts
    }
  }
  report_.violations.push_back({budget, severity, at, observed, limit});
  if (severity > report_.verdict) {
    report_.verdict = severity;
    report_.violated_budget = budget;
    report_.first_violation_at = at;
  }
}

void FidelityGuard::CheckUpper(const char* budget, double observed,
                               double degraded_limit, double invalid_limit,
                               VirtualTime at) {
  if (invalid_limit > 0.0 && observed > invalid_limit) {
    ReportViolation(budget, FidelityVerdict::kInvalid, observed, invalid_limit, at);
  }
  if (degraded_limit > 0.0 && observed > degraded_limit) {
    ReportViolation(budget, FidelityVerdict::kDegraded, observed, degraded_limit, at);
  }
}

void FidelityGuard::CheckLower(const char* budget, double observed,
                               double degraded_limit, double invalid_limit,
                               VirtualTime at) {
  if (observed < invalid_limit) {
    ReportViolation(budget, FidelityVerdict::kInvalid, observed, invalid_limit, at);
  }
  if (observed < degraded_limit) {
    ReportViolation(budget, FidelityVerdict::kDegraded, observed, degraded_limit, at);
  }
}

void FidelityGuard::Probe() {
  const VirtualTime now = sim_->Now();
  double p99 = 0.0;
  double lateness_max = 0.0;
  double cpu = 0.0;
  double headroom = 1.0;
  bool oom = false;
  for (size_t i = 0; i < machines_->size(); ++i) {
    Machine& m = machines_->at(i);
    p99 = std::max(p99, m.lateness().p99().seconds());
    lateness_max = std::max(lateness_max, m.lateness().max().seconds());
    cpu = std::max(cpu, m.cpu().Utilization());
    headroom = std::min(headroom, m.memory().HeadroomFraction());
    oom = oom || m.memory().oom_observed();
  }
  CheckUpper("lateness_p99", p99, budgets_.lateness_p99_degraded.seconds(),
             budgets_.lateness_p99_invalid.seconds(), now);
  CheckUpper("lateness_max", lateness_max,
             budgets_.lateness_max_degraded.seconds(),
             budgets_.lateness_max_invalid.seconds(), now);
  CheckUpper("cpu_utilization", cpu, budgets_.cpu_util_degraded,
             budgets_.cpu_util_invalid, now);
  CheckLower("memory_headroom", headroom, budgets_.memory_headroom_degraded,
             budgets_.memory_headroom_invalid, now);
  if (oom) {
    ReportViolation("oom", FidelityVerdict::kInvalid, 0.0, 0.0, now);
  }
}

}  // namespace scalecheck
