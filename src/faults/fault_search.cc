#include "src/faults/fault_search.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/scalecheck/experiment_suite.h"
#include "src/scalecheck/knob_table.h"

namespace scalecheck {

namespace {

constexpr char kReproFormat[] = "scalecheck-repro-v1";

// Mirrors fault_plan.cc's PickVictim: never the seed/contact nodes (0..2) and
// never the workload's membership target (n/2).
NodeId SearchVictim(Rng* rng, int n) {
  CHECK_GE(n, kMinFaultSearchNodes) << "fault search needs at least "
                                     << kMinFaultSearchNodes << " nodes";
  NodeId v = static_cast<NodeId>(rng->UniformInt(0, n - 1));
  while (v < 3 || v == n / 2) {
    v = (v + 1) % n;
  }
  return v;
}

VirtualDuration RandomAt(Rng* rng) {
  // Inside the default workload window (start 20 s, transitions within the
  // first few minutes), with sub-second jitter off the gossip cadence.
  return VirtualDuration::Seconds(rng->UniformInt(20, 220)) +
         VirtualDuration::Nanos(static_cast<int64_t>(rng->UniformDouble() * 1e9));
}

FaultEvent RandomEvent(Rng* rng, int n) {
  FaultEvent ev;
  ev.kind = static_cast<FaultKind>(rng->UniformInt(0, 4));
  ev.at = RandomAt(rng);
  ev.duration = VirtualDuration::Seconds(rng->UniformInt(10, 45));
  switch (ev.kind) {
    case FaultKind::kPartition: {
      // A small island (complement side implicit via empty nodes_b).
      int island = 1 + static_cast<int>(rng->UniformInt(0, std::max(0, n / 8)));
      std::vector<NodeId> nodes;
      for (int i = 0; i < island; ++i) {
        NodeId v = SearchVictim(rng, n);
        if (std::find(nodes.begin(), nodes.end(), v) == nodes.end()) {
          nodes.push_back(v);
        }
      }
      std::sort(nodes.begin(), nodes.end());
      ev.nodes_a = std::move(nodes);
      break;
    }
    case FaultKind::kLinkDegrade:
      ev.nodes_a = {SearchVictim(rng, n)};
      ev.extra_loss = 0.2 + 0.6 * rng->UniformDouble();
      ev.extra_latency = VirtualDuration::Millis(rng->UniformInt(50, 400));
      break;
    case FaultKind::kCrash:
      ev.nodes_a = {SearchVictim(rng, n)};
      // duration = restart delay; occasionally never restart.
      if (rng->UniformInt(0, 3) == 0) {
        ev.duration = VirtualDuration::Zero();
      }
      break;
    case FaultKind::kSlowNode:
      ev.nodes_a = {SearchVictim(rng, n)};
      ev.cpu_factor = 0.2 + 0.5 * rng->UniformDouble();
      break;
    case FaultKind::kMemoryPressure:
      ev.nodes_a = {SearchVictim(rng, n)};
      ev.ballast_bytes =
          (1 + static_cast<int64_t>(rng->UniformInt(0, 5))) * 1024 * 1024 * 1024;
      break;
  }
  return ev;
}

FaultPlan RandomPlan(Rng* rng, int n, int max_events) {
  FaultPlan plan;
  int count = 1 + static_cast<int>(rng->UniformInt(0, std::max(0, max_events - 1)));
  for (int i = 0; i < count; ++i) {
    plan.events.push_back(RandomEvent(rng, n));
  }
  return plan;
}

FaultPlan MutatePlan(Rng* rng, const FaultPlan& base, int n, int max_events) {
  FaultPlan plan = base;
  int op = plan.events.empty() ? 4 : static_cast<int>(rng->UniformInt(0, 4));
  size_t pick = plan.events.empty()
                    ? 0
                    : rng->PickIndex(plan.events.size());
  switch (op) {
    case 0: {  // shift injection time
      int64_t delta_s = rng->UniformInt(-20, 20);
      VirtualDuration at =
          plan.events[pick].at + VirtualDuration::Seconds(delta_s);
      if (at.nanos() < VirtualDuration::Seconds(1).nanos()) {
        at = VirtualDuration::Seconds(1);
      }
      plan.events[pick].at = at;
      break;
    }
    case 1: {  // rescale duration
      plan.events[pick].duration =
          VirtualDuration::Seconds(rng->UniformInt(5, 60));
      break;
    }
    case 2:  // retarget the victim
      plan.events[pick].nodes_a = {SearchVictim(rng, n)};
      break;
    case 3:  // drop an event (or add, when only one is left)
      if (plan.events.size() > 1) {
        plan.events.erase(plan.events.begin() + static_cast<int64_t>(pick));
        break;
      }
      [[fallthrough]];
    case 4:  // add a fresh event (replace one at the cap)
    default:
      if (static_cast<int>(plan.events.size()) < max_events) {
        plan.events.push_back(RandomEvent(rng, n));
      } else {
        plan.events[pick] = RandomEvent(rng, n);
      }
      break;
  }
  return plan;
}

double ScoreCandidate(const std::vector<std::string>& violated, int64_t flaps,
                      int64_t baseline_flaps) {
  // Violations dominate; flap divergence from the no-fault baseline breaks
  // ties toward schedules that disturb the cluster the most.
  return 100.0 * static_cast<double>(violated.size()) +
         RelativeFlapError(flaps, baseline_flaps);
}

void WritePlanSummary(JsonWriter* w, const FaultCandidate& cand) {
  w->BeginObject();
  w->Field("index", cand.index);
  w->Field("events", static_cast<int64_t>(cand.plan.events.size()));
  w->Field("score", cand.score);
  w->Field("flaps", cand.flaps);
  w->Key("violated").BeginArray();
  for (const std::string& name : cand.violated) {
    w->String(name);
  }
  w->EndArray();
  w->Key("plan");
  cand.plan.WriteJson(w);
  w->EndObject();
}

}  // namespace

FaultSearch::FaultSearch(FaultSearchConfig config) : config_(std::move(config)) {
  // Candidates carry the whole schedule explicitly; a named plan on the base
  // spec would silently merge into every empty-plan run.
  config_.spec.fault_plan = "none";
  config_.spec.custom_faults = FaultPlan{};
  config_.spec.check.enabled = true;
  CHECK_GE(config_.nodes, kMinFaultSearchNodes);
  CHECK_GE(config_.budget, 1);
  CHECK_GE(config_.generation_size, 1);
  CHECK_GE(config_.max_events, 1);
}

FaultSearchReport FaultSearch::Run() {
  const FaultSearchConfig& cfg = config_;
  FaultSearchReport report;

  // No-fault baseline: the flap-divergence reference.
  RunResult baseline = RunSingle(cfg.spec, cfg.nodes, cfg.mode, cfg.seed);
  report.baseline_flaps = baseline.flaps;

  Rng rng(HashCombine(cfg.search_seed, 0x5ea6c4d0ULL));
  int emitted = 0;
  while (emitted < cfg.budget &&
         !(report.found_violation && cfg.stop_on_first_violation)) {
    int gen = std::min(cfg.generation_size, cfg.budget - emitted);

    // Compose the whole generation before evaluating any of it: candidate
    // plans depend only on the search Rng and on *previous* generations'
    // (deterministic) suite results, never on host scheduling.
    const FaultPlan* best_plan =
        report.best_index >= 0 &&
                !report.candidates[static_cast<size_t>(report.best_index)]
                     .plan.events.empty()
            ? &report.candidates[static_cast<size_t>(report.best_index)].plan
            : nullptr;
    std::vector<FaultPlan> plans;
    plans.reserve(static_cast<size_t>(gen));
    for (int i = 0; i < gen; ++i) {
      FaultPlan plan = (best_plan != nullptr && i % 2 == 1)
                           ? MutatePlan(&rng, *best_plan, cfg.nodes, cfg.max_events)
                           : RandomPlan(&rng, cfg.nodes, cfg.max_events);
      plan.name = StrFormat("cand-%03d", emitted + i);
      plans.push_back(std::move(plan));
    }

    // One host-parallel suite per generation; each candidate is an ordinary
    // BugSpec, so the executor's determinism contract carries over.
    ExperimentSpec grid;
    grid.bugs.reserve(static_cast<size_t>(gen));
    for (int i = 0; i < gen; ++i) {
      BugSpec cand = cfg.spec;
      cand.id = plans[static_cast<size_t>(i)].name;
      cand.custom_faults = plans[static_cast<size_t>(i)];
      grid.bugs.push_back(std::move(cand));
    }
    grid.modes = {cfg.mode};
    grid.scales = {cfg.nodes};
    grid.seeds = {cfg.seed};
    grid.jobs = cfg.jobs;
    SuiteReport suite = ExperimentSuite(std::move(grid)).Run();

    for (int i = 0; i < gen; ++i) {
      const FaultPlan& plan = plans[static_cast<size_t>(i)];
      const RunResult& run = suite.Get(plan.name, cfg.mode, cfg.nodes, cfg.seed);
      FaultCandidate cand;
      cand.index = emitted + i;
      cand.plan = plan;
      cand.flaps = run.flaps;
      cand.violated = run.invariants.ViolatedNames();
      std::sort(cand.violated.begin(), cand.violated.end());
      cand.score = ScoreCandidate(cand.violated, cand.flaps, report.baseline_flaps);
      if (cand.violating() && !report.found_violation) {
        report.found_violation = true;
        report.violating_index = cand.index;
        report.violating_plan = cand.plan;
        report.violated = cand.violated;
      }
      if (report.best_index < 0 ||
          cand.score >
              report.candidates[static_cast<size_t>(report.best_index)].score) {
        report.best_index = cand.index;
      }
      report.candidates.push_back(std::move(cand));
    }
    emitted += gen;
  }

  if (report.found_violation) {
    report.minimized_plan = report.violating_plan;
    if (cfg.minimize) {
      MinimizeResult min = MinimizeFaultPlan(cfg.spec, cfg.nodes, cfg.mode,
                                             cfg.seed, report.violating_plan,
                                             report.violated);
      report.minimized_plan = std::move(min.plan);
      report.minimize_runs = min.runs;
    }
    report.minimized_plan.name = "minimized";
    // Final run of the minimized plan: its InvariantReport is what --repro
    // must reproduce byte-identically.
    BugSpec repro_spec = cfg.spec;
    repro_spec.custom_faults = report.minimized_plan;
    RunResult final_run = RunSingle(repro_spec, cfg.nodes, cfg.mode, cfg.seed);
    report.repro_json = MakeReproArtifact(cfg.spec, cfg.nodes, cfg.mode,
                                          cfg.seed, report.minimized_plan,
                                          final_run);
  }
  return report;
}

MinimizeResult MinimizeFaultPlan(const BugSpec& base_spec, int nodes,
                                 RunMode mode, uint64_t seed,
                                 const FaultPlan& plan,
                                 const std::vector<std::string>& expected) {
  CHECK(!expected.empty()) << "nothing to minimize against";
  MinimizeResult out;
  BugSpec spec = base_spec;
  spec.fault_plan = "none";

  // Memoized predicate: does this event subset still reproduce every
  // expected invariant violation? Subsets recur across ddmin rounds.
  std::map<std::vector<size_t>, bool> memo;
  auto violates = [&](const std::vector<size_t>& keep) {
    auto it = memo.find(keep);
    if (it != memo.end()) {
      return it->second;
    }
    FaultPlan sub;
    sub.name = "minimize";
    for (size_t idx : keep) {
      sub.events.push_back(plan.events[idx]);
    }
    BugSpec cand = spec;
    cand.custom_faults = std::move(sub);
    RunResult run = RunSingle(cand, nodes, mode, seed);
    ++out.runs;
    std::vector<std::string> got = run.invariants.ViolatedNames();
    bool all = true;
    for (const std::string& name : expected) {
      if (std::find(got.begin(), got.end(), name) == got.end()) {
        all = false;
        break;
      }
    }
    memo[keep] = all;
    return all;
  };

  std::vector<size_t> keep(plan.events.size());
  std::iota(keep.begin(), keep.end(), size_t{0});
  CHECK(violates(keep)) << "minimizer input does not violate";

  // If the violation does not need faults at all, the minimal plan is empty.
  if (violates({})) {
    out.plan.name = "minimized";
    return out;
  }

  // ddmin proper: try chunks, then chunk complements, then refine.
  size_t granularity = 2;
  while (keep.size() >= 2) {
    size_t g = std::min(granularity, keep.size());
    size_t chunk = (keep.size() + g - 1) / g;
    std::vector<std::vector<size_t>> chunks;
    for (size_t start = 0; start < keep.size(); start += chunk) {
      chunks.emplace_back(keep.begin() + static_cast<int64_t>(start),
                          keep.begin() + static_cast<int64_t>(
                                             std::min(start + chunk, keep.size())));
    }
    bool reduced = false;
    for (const std::vector<size_t>& subset : chunks) {
      if (subset.size() < keep.size() && violates(subset)) {
        keep = subset;
        granularity = 2;
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      for (size_t i = 0; i < chunks.size(); ++i) {
        std::vector<size_t> complement;
        for (size_t j = 0; j < chunks.size(); ++j) {
          if (j != i) {
            complement.insert(complement.end(), chunks[j].begin(), chunks[j].end());
          }
        }
        if (!complement.empty() && complement.size() < keep.size() &&
            violates(complement)) {
          keep = complement;
          granularity = std::max<size_t>(g - 1, 2);
          reduced = true;
          break;
        }
      }
    }
    if (!reduced) {
      if (g >= keep.size()) {
        break;
      }
      granularity = std::min(keep.size(), g * 2);
    }
  }

  // Explicit 1-minimality pass: ddmin guarantees it at final granularity, but
  // the acceptance criterion is "removing any single event loses the
  // violation", so verify exactly that (memoized subsets make repeats free).
  bool changed = true;
  while (changed && keep.size() > 1) {
    changed = false;
    for (size_t i = 0; i < keep.size(); ++i) {
      std::vector<size_t> without = keep;
      without.erase(without.begin() + static_cast<int64_t>(i));
      if (violates(without)) {
        keep = std::move(without);
        changed = true;
        break;
      }
    }
  }

  out.plan.name = "minimized";
  for (size_t idx : keep) {
    out.plan.events.push_back(plan.events[idx]);
  }
  return out;
}

std::string MakeReproArtifact(const BugSpec& spec, int nodes, RunMode mode,
                              uint64_t seed, const FaultPlan& plan,
                              const RunResult& result) {
  RunSettings settings;
  settings.run.spec = spec;
  settings.run.nodes = nodes;
  settings.run.mode = mode;
  settings.run.seed = seed;
  JsonWriter w;
  w.BeginObject();
  w.Field("format", kReproFormat);
  WriteArtifactKnobs(settings, &w);
  w.Key("plan");
  plan.WriteJson(&w);
  w.Key("expected_violated").BeginArray();
  for (const InvariantViolation& v : result.invariants.violations) {
    w.String(v.invariant);
  }
  w.EndArray();
  // The full report the replay must reproduce byte-for-byte.
  w.Field("expected_invariants", result.invariants.ToJson());
  w.EndObject();
  return w.str();
}

Result<ReproReplay> ReplayRepro(const std::string& artifact_json) {
  Result<JsonValue> parsed = ParseJson(artifact_json);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const JsonValue& v = parsed.value();
  if (!v.is_object()) {
    return Status(StatusCode::kInvalidArgument, "repro artifact: not an object");
  }
  // Every key is a knob row's or one of the artifact's own.
  for (const auto& [key, value] : v.AsObject()) {
    (void)value;
    bool known = key == "format" || key == "plan" || key == "expected_violated" ||
                 key == "expected_invariants" ||
                 std::any_of(KnobTable().begin(), KnobTable().end(),
                             [&key](const Knob& row) { return row.key == key; });
    if (!known) {
      return Status(StatusCode::kInvalidArgument,
                    "repro artifact: unknown key '" + key + "'");
    }
  }

  Result<std::string> format = v.GetString("format", "repro artifact");
  if (!format.ok()) {
    return format.status();
  }
  if (format.value() != kReproFormat) {
    return Status(StatusCode::kVersionSkew,
                  "unsupported repro format '" + format.value() + "'");
  }
  RunSettings settings;
  Status knobs = ReadArtifactKnobs(v, &settings);
  if (knobs.ok()) {
    knobs = CheckArtifactKnobs(settings);
  }
  if (!knobs.ok()) {
    return knobs;
  }
  FaultSearchConfig& run = settings.run;
  if (run.nodes < kMinFaultSearchNodes) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("repro artifact: nodes below the search minimum %d",
                            kMinFaultSearchNodes));
  }
  const JsonValue* plan_value = v.Find("plan");
  if (plan_value == nullptr) {
    return Status(StatusCode::kInvalidArgument, "repro artifact: missing plan");
  }
  Result<FaultPlan> plan = FaultPlan::FromJson(*plan_value);
  if (!plan.ok()) {
    return plan.status();
  }
  const JsonValue* expected = v.Find("expected_violated");
  if (expected == nullptr || !expected->is_array()) {
    return Status(StatusCode::kInvalidArgument,
                  "repro artifact: expected_violated must be an array");
  }
  std::vector<std::string> expected_violated;
  for (const JsonValue& item : expected->AsArray()) {
    if (!item.is_string()) {
      return Status(StatusCode::kInvalidArgument,
                    "repro artifact: expected_violated entries must be strings");
    }
    expected_violated.push_back(item.AsString());
  }
  Result<std::string> expected_invariants =
      v.GetString("expected_invariants", "repro artifact");
  if (!expected_invariants.ok()) {
    return expected_invariants.status();
  }

  run.spec.fault_plan = "none";
  run.spec.custom_faults = plan.value();
  run.spec.check.enabled = true;

  ReproReplay replay;
  replay.bug_id = run.spec.id;
  replay.expected_violated = std::move(expected_violated);
  replay.result = RunSingle(run.spec, run.nodes, run.mode, run.seed);
  replay.invariants_match =
      replay.result.invariants.ToJson() == expected_invariants.value();
  return replay;
}

std::string FaultSearchReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("baseline_flaps", baseline_flaps);
  w.Field("candidates_run", static_cast<int64_t>(candidates.size()));
  w.Field("best_index", best_index);
  w.Field("found_violation", found_violation);
  w.Field("violating_index", violating_index);
  w.Key("violated").BeginArray();
  for (const std::string& name : violated) {
    w.String(name);
  }
  w.EndArray();
  w.Key("candidates").BeginArray();
  for (const FaultCandidate& cand : candidates) {
    WritePlanSummary(&w, cand);
  }
  w.EndArray();
  w.Field("minimized_events", static_cast<int64_t>(minimized_plan.events.size()));
  w.Field("minimize_runs", minimize_runs);
  w.Key("minimized_plan");
  minimized_plan.WriteJson(&w);
  w.Field("repro", repro_json);
  w.EndObject();
  return w.str();
}

}  // namespace scalecheck
