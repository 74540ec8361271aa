#include "src/scalecheck/knob_table.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <utility>

#include "src/common/strings.h"

namespace scalecheck {
namespace {

constexpr unsigned kSuite = ModeBit(CliModeKind::kSuite);
constexpr unsigned kSearch = ModeBit(CliModeKind::kSearch);
constexpr unsigned kRepro = ModeBit(CliModeKind::kRepro);
constexpr unsigned kReal = ModeBit(CliModeKind::kReal);
constexpr unsigned kExperiment = ModeBit(CliModeKind::kExperiment);
constexpr unsigned kSim = kSuite | kSearch;  // the modes that run the BugSpec
constexpr unsigned kAll = kSim | kRepro | kReal | kExperiment;

constexpr int kMaxInt = std::numeric_limits<int>::max();
constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();
constexpr uint64_t kMaxUint64 = std::numeric_limits<uint64_t>::max();
constexpr double kPositive = std::numeric_limits<double>::denorm_min();  // the bound of "> 0"

// Help text wraps into the column from kHelpColumn to kUsageWidth.
constexpr size_t kHelpColumn = 30;
constexpr size_t kUsageWidth = 78;

std::string Quoted(std::string_view text) { return "'" + std::string(text) + "'"; }

Status OutOfRange(std::string_view text, const std::string& range) {
  return Status::InvalidArgument(Quoted(text) + " is outside " + range);
}

// ---- Value kinds -------------------------------------------------------------
// A kind parses a value from its CLI text, checking the range, and renders
// it back. The artifact holds the same text: a JSON string for kString
// kinds, spliced verbatim for the others.
enum class Json { kString, kBool, kInt, kNumber };

// An integer in [lo, hi]: decimal, or with base 0 also the C literal forms
// strtoull accepts (0x hex, leading-0 octal).
template <typename T>
struct Int {
  static constexpr Json kJson = Json::kInt;
  T lo;
  T hi;
  int base = 10;

  Result<T> FromText(std::string_view text) const {
    std::string_view digits = text.starts_with('+') ? text.substr(1) : text;
    int b = base;
    if (b == 0 && (digits.starts_with("0x") || digits.starts_with("0X"))) {
      b = 16;
      digits.remove_prefix(2);
    } else if (b == 0) {
      b = digits.size() > 1 && digits[0] == '0' ? 8 : 10;
    }
    T v{};
    auto [end, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), v, b);
    if (digits.empty() || ec != std::errc() || end != digits.data() + digits.size()) {
      return Status::InvalidArgument(Quoted(text) + " is not an integer");
    }
    if (v < lo || v > hi) {
      return OutOfRange(text, "[" + ToText(lo) + ", " + ToText(hi) + "]");
    }
    return v;
  }
  std::string ToText(T v) const { return std::to_string(v); }
};

// A finite real of at least `lo` (kPositive: above zero).
struct Real {
  static constexpr Json kJson = Json::kNumber;
  double lo;

  Result<double> FromText(std::string_view text) const {
    std::string_view digits = text.starts_with('+') ? text.substr(1) : text;
    double v = 0.0;
    auto [end, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), v);
    if (digits.empty() || ec != std::errc() || end != digits.data() + digits.size()) {
      return Status::InvalidArgument(Quoted(text) + " is not a number");
    }
    if (!(v >= lo && v <= std::numeric_limits<double>::max())) {
      return OutOfRange(text, lo == kPositive ? "(0, inf)" : "[" + ToText(lo) + ", inf)");
    }
    return v;
  }
  std::string ToText(double v) const { return StrFormat("%.17g", v); }
};

// A boolean; on the command line, a switch that sets it.
struct Switch {
  static constexpr Json kJson = Json::kBool;

  Result<bool> FromText(std::string_view text) const {
    if (text != "true" && text != "false") {
      return Status::InvalidArgument(Quoted(text) + " is not a boolean");
    }
    return text == "true";
  }
  std::string ToText(bool v) const { return v ? "true" : "false"; }
};

// One of `values`, spelled by `name`.
template <typename E>
struct Choice {
  static constexpr Json kJson = Json::kString;
  const char* (*name)(E);
  std::vector<E> values;

  Result<E> FromText(std::string_view text) const {
    std::vector<std::string> names;
    for (E v : values) {
      if (text == name(v)) {
        return v;
      }
      names.push_back(name(v));
    }
    return Status::InvalidArgument("unknown value " + Quoted(text) + " (want " +
                                   Join(names, "|") + ")");
  }
  std::string ToText(E v) const { return name(v); }
};

// Free text, restricted to the names `known` accepts when it is set.
struct Text {
  static constexpr Json kJson = Json::kString;
  bool (*known)(const std::string&) = nullptr;

  Result<std::string> FromText(std::string_view text) const {
    if (known != nullptr && !known(std::string(text))) {
      return Status::InvalidArgument("unknown value " + Quoted(text));
    }
    return std::string(text);
  }
  std::string ToText(const std::string& v) const { return v; }
};

// A whole number of `unit`s.
struct Duration {
  static constexpr Json kJson = Json::kInt;
  Int<int64_t> count;
  VirtualDuration unit;

  Result<VirtualDuration> FromText(std::string_view text) const {
    Result<int64_t> n = count.FromText(text);
    if (!n.ok()) {
      return n.status();
    }
    return VirtualDuration::Nanos(n.value() * unit.nanos());
  }
  std::string ToText(VirtualDuration d) const { return count.ToText(d.nanos() / unit.nanos()); }
};

// A catalog scenario by id; the value is the whole BugSpec.
struct CatalogEntry {
  static constexpr Json kJson = Json::kString;

  Result<BugSpec> FromText(std::string_view id) const {
    const BugSpec* spec = BugCatalog::TryGet(std::string(id));
    if (spec == nullptr) {
      return Status::NotFound("unknown bug id " + Quoted(id));
    }
    return *spec;
  }
  std::string ToText(const BugSpec& spec) const { return spec.id; }
};

// The artifact value `v` as the text a kind of `type` parses.
Result<std::string> JsonText(const JsonValue& v, Json type) {
  if (type == Json::kString && v.is_string()) {
    return v.AsString();
  }
  if (type == Json::kBool && v.is_bool()) {
    return std::string(v.AsBool() ? "true" : "false");
  }
  if (type == Json::kInt && v.is_int()) {
    return std::to_string(v.AsInt());
  }
  if (type == Json::kNumber && v.is_number()) {
    return Real{0.0}.ToText(v.AsDouble());
  }
  return Status::InvalidArgument("wrong JSON type");
}

const char* KvKeyDistName(KvKeyDist dist) {
  return dist == KvKeyDist::kZipf ? "zipf" : "uniform";
}

const Real kZipfExponent{kPositive};

// A row whose value, read by `kind`, lands in `field` and every one of
// `more`. Fields are generic lambdas `[](auto& s) -> auto& { return s.x; }`,
// so one accessor serves reads of const settings and writes; show and write
// render `field`. A switch's bare flag stands for "true".
template <typename Kind, typename Field, typename... More>
Knob Bind(Knob row, Kind kind, Field field, More... more) {
  auto assign = [kind, field, more...](std::string_view text, RunSettings* s) -> Status {
    auto value = kind.FromText(text);
    if (!value.ok()) {
      return value.status();
    }
    field(*s) = value.value();
    ((more(*s) = value.value()), ...);
    return Status::Ok();
  };
  row.parse = [assign](std::optional<std::string_view> text, RunSettings* s) -> Status {
    constexpr bool kSwitch = Kind::kJson == Json::kBool;
    if (text.has_value() == kSwitch) {
      return Status::InvalidArgument(kSwitch ? "takes no value" : "needs a value");
    }
    return assign(text.value_or("true"), s);
  };
  row.show = [kind, field](const RunSettings& s) { return kind.ToText(field(s)); };
  row.write = [show = row.show](const RunSettings& s, JsonWriter* w) {
    Kind::kJson == Json::kString ? w->String(show(s)) : w->Raw(show(s));
  };
  row.read = [assign](const JsonValue& v, RunSettings* s) {
    Result<std::string> text = JsonText(v, Kind::kJson);
    return text.ok() ? assign(text.value(), s) : text.status();
  };
  return row;
}

// --plant-kv-bug may spell out the bug it plants.
Knob PlantKvBug(Knob row) {
  row.parse = [parse = row.parse](std::optional<std::string_view> text, RunSettings* s) {
    if (text.has_value() && *text != "ack-before-sync") {
      return Status::InvalidArgument("unknown kv bug " + Quoted(*text));
    }
    return parse(std::nullopt, s);
  };
  return row;
}

// --kv-key-dist=zipf:S also sets the Zipf exponent.
Knob KeyDist(Knob row) {
  row.parse = [parse = row.parse](std::optional<std::string_view> text, RunSettings* s) {
    if (text.has_value() && text->starts_with("zipf:")) {
      Result<double> exponent = kZipfExponent.FromText(text->substr(5));
      if (!exponent.ok()) {
        return exponent.status();
      }
      s->run.spec.kv_zipf_s = exponent.value();
      text = "zipf";
    }
    return parse(text, s);
  };
  return row;
}

// --guard-lateness-p99-ms=MS: the invalid budget, and half of it degraded.
Knob GuardLateness(Knob row) {
  row.parse = [](std::optional<std::string_view> text, RunSettings* s) -> Status {
    Result<double> ms = Real{kPositive}.FromText(text.value_or(""));
    if (!ms.ok()) {
      return ms.status();
    }
    FidelityBudgets& guard = s->run.spec.guard;
    guard.lateness_p99_invalid = VirtualDuration::Micros(static_cast<int64_t>(ms.value() * 1000.0));
    guard.lateness_p99_degraded = VirtualDuration::Micros(static_cast<int64_t>(ms.value() * 500.0));
    return Status::Ok();
  };
  row.show = [](const RunSettings& s) {
    return StrFormat("%g", static_cast<double>(s.run.spec.guard.lateness_p99_invalid.micros()) / 1e3);
  };
  return row;
}

std::vector<Knob> BuildTable() {
  std::vector<const ExperimentRow*> tables;
  std::vector<std::string> table_names;
  for (const ExperimentRow& row : ExperimentTable()) {
    tables.push_back(&row);
    table_names.push_back(row.name);
  }
  static const std::string* table_help =
      new std::string("the EXPERIMENTS.md table to print: " + Join(table_names, " | "));
  return {
      Bind({"--bug", "bug", kSim, "=ID", "catalog scenario to run (default {})"}, CatalogEntry{},
           [](auto& s) -> auto& { return s.run.spec; }),
      Bind({"--mode", "", kAll, "=M",
            "suite | search | repro | real | experiment (default {}). suite runs simulated "
            "deployments (--sim-modes). search is ChaosSearch: explore seed-deterministic fault "
            "plans, score by invariant violations, shrink the first hit to a minimal reproducer. "
            "repro replays --repro=FILE. real boots N in-process nodes on REAL localhost TCP "
            "sockets + wall-clock timers, runs to gossip convergence, exports RunResult JSON. "
            "experiment prints one EXPERIMENTS.md table (--table)"},
           Text{}, [](auto& s) -> auto& { return s.mode; }),
      Bind({"--sim-modes", "", kSuite, "=CSV",
            "which simulated deployments (real|colo|memoize|replay; default all four, the "
            "comparison grid)"},
           Text{}, [](auto& s) -> auto& { return s.sim_modes; }),
      Bind({"--nodes", "nodes", kSim | kReal, "=N", "initial cluster size (default {})"},
           Int<int>{2, 100000}, [](auto& s) -> auto& { return s.run.nodes; }),
      // The simulated deployment an artifact replays (ChaosSearch runs Colo).
      Bind({"", "mode"},
           Choice<RunMode>{RunModeName,
                           {RunMode::kRealScale, RunMode::kColocated, RunMode::kMemoize,
                            RunMode::kPilReplay, RunMode::kRealSockets}},
           [](auto& s) -> auto& { return s.run.mode; }),
      Bind({"--seed", "seed", kSim | kReal, "=S",
            "simulation seed: decimal, 0x hex or 0-prefixed octal (default {})"},
           Int<uint64_t>{0, kMaxUint64, 0}, [](auto& s) -> auto& { return s.run.seed; }),
      Bind({"--table", "", kExperiment, "=NAME", *table_help},
           Choice<const ExperimentRow*>{ExperimentName, tables},
           [](auto& s) -> auto& { return s.table; }),
      Bind({"--jobs", "", kSim | kExperiment, "=J",
            "host worker threads for the grid and the search; moves no output byte (0 = one per "
            "core; default {})"},
           Int<int>{0, kMaxInt}, [](auto& s) -> auto& { return s.run.jobs; }),
      Bind({"--faults", "", kSuite | kReal, "=PLAN",
            "none | standard-chaos | partition | crash-restart | slow-node | memory-pressure | "
            "island: a seed-deterministic fault schedule (partitions, crash+restart, slow nodes, "
            "memory pressure) injected into every run. island is the ChaosSearch islanding "
            "reproducer: one full partition of node N-1 for ~32 gossip rounds. --mode=real "
            "replays link-level plans against the TCP carrier, rescaled to --gossip-ms, and exits "
            "4 if the cluster fails the partition-heals reconvergence bound"},
           Text{FaultPlan::IsKnown}, [](auto& s) -> auto& { return s.run.spec.fault_plan; }),
      Bind({"--trace", "", kSuite, "",
            "record an execution trace and print its digest and last entries (--sim-modes "
            "runs only)"},
           Switch{}, [](auto& s) -> auto& { return s.trace; }),
      Bind({"--json", "", kAll & ~kExperiment, "", "print results as JSON"}, Switch{},
           [](auto& s) -> auto& { return s.json; }),
      GuardLateness({"--guard-lateness-p99-ms", "", kSim, "=MS",
                     "fidelity budget: p99 event lateness above MS ms invalidates the run "
                     "(degraded at MS/2; default {})"}),
      Bind({"--replay-policy", "", kSim, "=P",
            "strict | warn | fallback: what a replay divergence does (strict aborts + invalid; "
            "default {})"},
           Choice<ReplayPolicy>{ReplayPolicyName,
                                {ReplayPolicy::kStrict, ReplayPolicy::kWarn,
                                 ReplayPolicy::kFallbackToModelled}},
           [](auto& s) -> auto& { return s.run.spec.replay_policy; }),
      Bind({"--search-budget", "", kSearch, "=B", "candidate plans to try (default {})"},
           Int<int>{1, kMaxInt}, [](auto& s) -> auto& { return s.run.budget; }),
      Bind({"--search-seed", "", kSearch, "=S",
            "seed for plan generation, not the sim seed (default {})"},
           Int<uint64_t>{0, kMaxUint64, 0}, [](auto& s) -> auto& { return s.run.search_seed; }),
      Bind({"--repro-out", "", kSearch, "=FILE", "write the search's repro artifact here"}, Text{},
           [](auto& s) -> auto& { return s.repro_out; }),
      Bind({"--repro", "", kRepro, "=FILE",
            "replay an artifact (implies --mode=repro); must reproduce the identical violation "
            "report"},
           Text{}, [](auto& s) -> auto& { return s.repro; }),
      Bind({"--plant-bug", "plant_left_join_bug", kSim, "",
            "plant the recovery bug the search smoke must find (see CheckOptions)"},
           Switch{}, [](auto& s) -> auto& { return s.run.spec.check.plant_left_join_bug; }),
      PlantKvBug(Bind(
          {"--plant-kv-bug", "plant_kv_ack_before_sync", kSim, "[=ack-before-sync]",
           "plant the ack-before-sync KV bug: the crash-durability search smoke target, needs "
           "--kv-wal", KvNeeds::kWal},
          Switch{}, [](auto& s) -> auto& { return s.run.spec.check.plant_kv_ack_before_sync; })),
      // KV invariant checkability depends on the workload, so a --workload
      // override is pinned or the replay could probe a different set.
      Bind({"--workload", "workload", kSim, "=W",
            "override the bug's workload: steady-state | decommission | scale-out | "
            "bootstrap-fresh | failover | rebalance (KV invariants only probe on steady-state and "
            "failover)"},
           Choice<WorkloadKind>{WorkloadKindName,
                                {WorkloadKind::kSteadyState, WorkloadKind::kDecommission,
                                 WorkloadKind::kScaleOut, WorkloadKind::kBootstrapFresh,
                                 WorkloadKind::kFailover, WorkloadKind::kRebalance}},
           [](auto& s) -> auto& { return s.run.spec.workload; }),
      Bind({"--kv-rate", "kv_ops_per_second", kSim, "=OPS",
            "KV client load in ops/second (overrides the spec; > 0 enables the KV service and "
            "load driver)"},
           Real{0.0}, [](auto& s) -> auto& { return s.run.spec.kv_ops_per_second; }),
      Bind({"--kv-consistency", "kv_consistency", kSim | kReal, "=L",
            "one | quorum | all: ack threshold for KV reads and writes (default {})",
            KvNeeds::kLoad},
           Choice<KvConsistency>{KvConsistencyName,
                                 {KvConsistency::kOne, KvConsistency::kQuorum, KvConsistency::kAll}},
           [](auto& s) -> auto& { return s.run.spec.kv_consistency; },
           [](auto& s) -> auto& { return s.real.config.kv.consistency; }),
      Bind({"--kv-wal", "kv_wal", kSim | kReal, "",
            "durable replica path: per-node WAL with group commit; crash loses the unsynced tail, "
            "restart replays the durable prefix; arms the kv-durability invariant", KvNeeds::kLoad},
           Switch{}, [](auto& s) -> auto& { return s.run.spec.kv_wal; },
           [](auto& s) -> auto& { return s.real.config.kv.wal; }),
      // Anti-entropy: the replica-convergence invariant only arms when
      // kv_repair is on, and its budget facet scores against the configured
      // rate, so a replay with different repair settings would probe (and
      // pass or fail) a different check than the one the search scored.
      Bind({"--kv-repair", "kv_repair", kSim | kReal, "",
            "anti-entropy repair: periodic Merkle-tree exchange with co-replicas streams only "
            "differing key ranges; arms the replica-convergence invariant", KvNeeds::kLoad},
           Switch{}, [](auto& s) -> auto& { return s.run.spec.kv_repair; },
           [](auto& s) -> auto& { return s.real.config.kv.repair; }),
      Bind({"", "kv_repair_interval_ns"}, Duration{{1, kMaxInt64}, VirtualDuration::Nanos(1)},
           [](auto& s) -> auto& { return s.run.spec.kv_repair_interval; }),
      Bind({"--kv-repair-rate", "kv_repair_rate_bytes", kSim | kReal, "=BYTES",
            "repair stream budget in bytes/second per node (default {})", KvNeeds::kRepair},
           Int<int64_t>{1, kMaxInt64, 0},
           [](auto& s) -> auto& { return s.run.spec.kv_repair_rate_bytes; },
           [](auto& s) -> auto& { return s.real.config.kv.repair_rate_bytes; }),
      Bind({"--kv-repair-max-sessions", "kv_repair_max_sessions", kSim | kReal, "=S",
            "concurrent repair sessions per node (default {})", KvNeeds::kRepair},
           Int<int>{1, kMaxInt}, [](auto& s) -> auto& { return s.run.spec.kv_repair_max_sessions; },
           [](auto& s) -> auto& { return s.real.config.kv.repair_max_sessions; }),
      Bind({"--plant-kv-bug=repair-storm", "plant_repair_storm", kSim | kReal, "",
            "plant the repair-storm KV bug: repair ignores its throttle and floods full-range "
            "streams; needs --kv-repair (the budget facet of replica-convergence flags it)",
            KvNeeds::kRepair},
           Switch{}, [](auto& s) -> auto& { return s.run.spec.check.plant_repair_storm; },
           [](auto& s) -> auto& { return s.real.config.check.plant_repair_storm; }),
      KeyDist(Bind({"--kv-key-dist", "kv_key_dist", kSim, "=D",
                    "uniform | zipf[:s]: KV driver key popularity (default {}; a bare zipf keeps "
                    "the scenario's exponent s)", KvNeeds::kLoad},
                   Choice<KvKeyDist>{KvKeyDistName, {KvKeyDist::kUniform, KvKeyDist::kZipf}},
                   [](auto& s) -> auto& { return s.run.spec.kv_key_dist; })),
      Bind({"", "kv_zipf_s"}, kZipfExponent, [](auto& s) -> auto& { return s.run.spec.kv_zipf_s; }),
      Bind({"--real-seconds", "", kReal, "=T", "convergence timeout in seconds (default {})"},
           Duration{{1, kMaxInt}, VirtualDuration::Seconds(1)},
           [](auto& s) -> auto& { return s.real.convergence_timeout; }),
      Bind({"--gossip-ms", "", kReal, "=MS", "gossip interval in ms (default {})"},
           Duration{{1, kMaxInt}, VirtualDuration::Millis(1)},
           [](auto& s) -> auto& { return s.real.config.gossip_interval; }),
      Bind({"--kv-ops", "", kReal, "=K",
            "K quorum writes+reads after convergence (default {} = membership only)"},
           Int<int>{0, kMaxInt}, [](auto& s) -> auto& { return s.real.kv_ops; }),
  };
}

// The row for a command-line argument ("--nodes=8", "--kv-wal"), or nullptr.
// A switch spelled with its value ("--plant-kv-bug=repair-storm") wins over
// a valued flag with the same prefix.
const Knob* FindKnob(std::string_view arg) {
  const Knob* valued = nullptr;
  for (const Knob& row : KnobTable()) {
    if (row.flag.empty()) {
      continue;
    }
    if (arg == row.flag) {
      return &row;
    }
    if (arg.starts_with(row.flag) && arg[row.flag.size()] == '=') {
      valued = &row;
    }
  }
  return valued;
}

// Appends `head`, then `text` word-wrapped into the column from `indent` to
// kUsageWidth; a head too wide for the column gets a line of its own.
void AppendWrapped(std::string_view head, std::string_view text, size_t indent,
                   std::string* out) {
  std::string line(head);
  if (line.size() >= indent) {
    *out += line + "\n";
    line.clear();
  }
  line.resize(indent, ' ');
  for (size_t start = 0, end = 0; start < text.size(); start = end + 1) {
    end = std::min(text.find(' ', start), text.size());
    if (line.size() > indent && line.size() + end - start >= kUsageWidth) {
      *out += line + "\n";
      line.assign(indent, ' ');
    }
    line += line.size() > indent ? " " : "";
    line += text.substr(start, end - start);
  }
  *out += line + "\n";
}

// The first thing `row`'s KvNeeds names that the run of `s` lacks, or
// kNothing; `real` reads the socket carrier's settings instead of the
// BugSpec's.
KvNeeds MissingKvNeed(const Knob& row, const RunSettings& s, bool real) {
  const bool load = real ? s.real.kv_ops > 0 : s.run.spec.kv_ops_per_second > 0.0;
  const bool wal = real ? s.real.config.kv.wal : s.run.spec.kv_wal;
  const bool repair = real ? s.real.config.kv.repair : s.run.spec.kv_repair;
  if (row.needs != KvNeeds::kNothing && !load) {
    return KvNeeds::kLoad;
  }
  if (row.needs == KvNeeds::kWal && !wal) {
    return KvNeeds::kWal;
  }
  if (row.needs == KvNeeds::kRepair && !repair) {
    return KvNeeds::kRepair;
  }
  return KvNeeds::kNothing;
}

}  // namespace

const std::vector<Knob>& KnobTable() {
  static const std::vector<Knob>* table = new std::vector<Knob>(BuildTable());
  return *table;
}

Result<CliArgs> ParseCliArgs(const std::vector<std::string>& args) {
  std::vector<std::pair<const Knob*, std::optional<std::string_view>>> sets;
  for (const std::string& arg : args) {
    const Knob* row = FindKnob(arg);
    if (row == nullptr) {
      return Status::InvalidArgument("unknown argument: " + arg);
    }
    sets.emplace_back(row, arg.size() > row->flag.size()
                               ? std::optional(std::string_view(arg).substr(row->flag.size() + 1))
                               : std::nullopt);
  }
  std::stable_sort(sets.begin(), sets.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  CliArgs out;
  for (const auto& [row, text] : sets) {
    Status parsed = row->parse(text, &out.settings);
    if (!parsed.ok()) {
      return Status::InvalidArgument(std::string(row->flag) + ": " + parsed.message());
    }
    out.given.push_back(row);
  }
  return out;
}

Result<ModeSelection> SelectMode(const CliArgs& args) {
  const RunSettings& s = args.settings;
  Result<ModeSelection> sel = ParseCliMode(s.mode, s.sim_modes);
  if (!sel.ok()) {
    return sel;
  }
  CliModeKind& kind = sel.value().kind;
  if (!s.repro.empty() && kind == CliModeKind::kSuite) {
    kind = CliModeKind::kRepro;
  }
  const bool real = kind == CliModeKind::kReal;
  for (const Knob* row : args.given) {
    const std::string flag(row->flag);
    if ((row->modes & ModeBit(kind)) == 0) {
      return Status::InvalidArgument(flag + " has no effect with --mode=" + CliModeKindName(kind));
    }
    const KvNeeds missing = MissingKvNeed(*row, s, real);
    if (missing != KvNeeds::kNothing) {
      return Status::InvalidArgument(flag + " has no effect without " +
                                     (missing == KvNeeds::kWal      ? "--kv-wal"
                                      : missing == KvNeeds::kRepair ? "--kv-repair"
                                      : real                        ? "KV load (--kv-ops)"
                                                                    : "KV load (--kv-rate)"));
    }
  }
  if (kind == CliModeKind::kSearch && s.run.nodes < kMinFaultSearchNodes) {
    return Status::InvalidArgument("--mode=search needs --nodes of at least " +
                                   std::to_string(kMinFaultSearchNodes));
  }
  if (kind == CliModeKind::kRepro && s.repro.empty()) {
    return Status::InvalidArgument("--mode=repro needs --repro=FILE");
  }
  if (kind == CliModeKind::kExperiment && s.table == nullptr) {
    return Status::InvalidArgument("--mode=experiment needs --table=NAME");
  }
  return sel;
}

std::string KnobUsage() {
  const RunSettings defaults;
  std::string synopsis;
  std::string help;
  for (const Knob& row : KnobTable()) {
    if (row.flag.empty()) {
      continue;
    }
    std::string spelling = std::string(row.flag) + std::string(row.metavar);
    synopsis += (synopsis.empty() ? "[" : " [") + spelling + "]";
    // Prefixed with the modes that read the flag, unless all of them do.
    std::string text;
    for (CliModeKind kind : {CliModeKind::kSuite, CliModeKind::kSearch, CliModeKind::kRepro,
                             CliModeKind::kReal, CliModeKind::kExperiment}) {
      if (row.modes != kAll && (row.modes & ModeBit(kind)) != 0) {
        text += (text.empty() ? "" : "|") + std::string(CliModeKindName(kind));
      }
    }
    text += (text.empty() ? "" : ": ") + std::string(row.help);
    if (size_t at = text.find("{}"); at != std::string::npos) {
      text.replace(at, 2, row.show(defaults));
    }
    AppendWrapped("  " + spelling, text, kHelpColumn, &help);
  }
  std::string out;
  AppendWrapped("usage: scalecheck_cli", synopsis, 22, &out);
  return out + help;
}

void WriteArtifactKnobs(const RunSettings& settings, JsonWriter* w) {
  for (const Knob& row : KnobTable()) {
    if (!row.key.empty()) {
      w->Key(std::string(row.key));
      row.write(settings, w);
    }
  }
}

Status ReadArtifactKnobs(const JsonValue& object, RunSettings* settings) {
  for (const Knob& row : KnobTable()) {
    if (row.key.empty()) {
      continue;
    }
    const JsonValue* value = object.Find(std::string(row.key));
    Status read = value == nullptr ? Status::InvalidArgument("missing") : row.read(*value, settings);
    if (!read.ok()) {
      return Status(read.code(),
                    "repro artifact: \"" + std::string(row.key) + "\": " + read.message());
    }
  }
  return Status::Ok();
}

Status CheckArtifactKnobs(const RunSettings& settings) {
  const RunSettings defaults;
  for (const Knob& row : KnobTable()) {
    if (row.key.empty() || row.show(settings) == row.show(defaults)) {
      continue;
    }
    const KvNeeds missing = MissingKvNeed(row, settings, /*real=*/false);
    if (missing != KvNeeds::kNothing) {
      return Status::FailedPrecondition(
          "repro artifact: \"" + std::string(row.key) + "\" has no effect without " +
          (missing == KvNeeds::kWal      ? "\"kv_wal\": true"
           : missing == KvNeeds::kRepair ? "\"kv_repair\": true"
                                         : "KV load (\"kv_ops_per_second\" above 0)"));
    }
  }
  return Status::Ok();
}

}  // namespace scalecheck
