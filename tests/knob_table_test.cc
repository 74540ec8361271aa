// The knob table (src/scalecheck/knob_table.h): every row parses a valid
// value, rejects a malformed or out-of-range one and appears in the usage
// text; every artifact row round-trips byte-identically; strict parsing and
// the mode checks reject what the CLI used to guess at or drop.

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "src/scalecheck/knob_table.h"

namespace scalecheck {
namespace {

// One valid and one rejected value per flag ("" for a switch's bare form).
struct Sample {
  std::string valid;
  std::string invalid;
};
const std::map<std::string, Sample>& FlagSamples() {
  static const auto* samples = new std::map<std::string, Sample>{
      {"--bug", {"C5456", "C9999"}},
      {"--mode", {"search", ""}},
      {"--sim-modes", {"colo,replay", ""}},
      {"--nodes", {"12", "1"}},
      {"--seed", {"0x7", "-1"}},
      {"--table", {"fig1", "fig9"}},
      {"--jobs", {"4", "4x"}},
      {"--faults", {"island", "hurricane"}},
      {"--trace", {"", "yes"}},
      {"--json", {"", "1"}},
      {"--guard-lateness-p99-ms", {"1.5", "0"}},
      {"--replay-policy", {"strict", "bogus"}},
      {"--search-budget", {"8", "0"}},
      {"--search-seed", {"12345", "1.5"}},
      {"--repro-out", {"out.json", ""}},
      {"--repro", {"in.json", ""}},
      {"--plant-bug", {"", "true"}},
      {"--plant-kv-bug", {"ack-before-sync", "bogus"}},
      {"--workload", {"steady-state", "drain"}},
      {"--kv-rate", {"1e3", "-1"}},
      {"--kv-consistency", {"all", "two"}},
      {"--kv-wal", {"", "on"}},
      {"--kv-repair", {"", "1"}},
      {"--kv-repair-rate", {"4096", "1e6"}},
      {"--kv-repair-max-sessions", {"2", "0"}},
      {"--plant-kv-bug=repair-storm", {"", ""}},
      {"--kv-key-dist", {"zipf:1.5", "zipf:0"}},
      {"--real-seconds", {"5", "0"}},
      {"--gossip-ms", {"50", "50ms"}},
      {"--kv-ops", {"8", "-8"}},
  };
  return *samples;
}

std::string Arg(const std::string& flag, const std::string& value) {
  return value.empty() ? flag : flag + "=" + value;
}

// The artifact knob fields of `settings`, as one JSON object.
std::string KnobJson(const RunSettings& settings) {
  JsonWriter w;
  w.BeginObject();
  WriteArtifactKnobs(settings, &w);
  w.EndObject();
  return w.str();
}

TEST(KnobTable, EveryFlagParsesRejectsAndIsDocumented) {
  const std::string usage = KnobUsage();
  int flags = 0;
  for (const Knob& row : KnobTable()) {
    if (row.flag.empty()) {
      continue;
    }
    ++flags;
    const std::string flag(row.flag);
    auto sample = FlagSamples().find(flag);
    ASSERT_NE(sample, FlagSamples().end()) << "no sample for " << flag;
    Result<CliArgs> good = ParseCliArgs({Arg(flag, sample->second.valid)});
    ASSERT_TRUE(good.ok()) << flag << ": " << good.status().ToString();
    ASSERT_EQ(good.value().given.size(), 1u);
    EXPECT_EQ(good.value().given[0], &row) << flag;
    if (!sample->second.invalid.empty()) {
      Result<CliArgs> bad = ParseCliArgs({Arg(flag, sample->second.invalid)});
      ASSERT_FALSE(bad.ok()) << flag << "=" << sample->second.invalid;
      EXPECT_EQ(bad.status().message().rfind(flag + ": ", 0), 0u) << bad.status().message();
    }
    // A valued flag without its value is an error too.
    if (!row.metavar.empty() && row.metavar[0] == '=') {
      EXPECT_FALSE(ParseCliArgs({flag}).ok()) << flag;
    }
    EXPECT_NE(usage.find("  " + flag + std::string(row.metavar)), std::string::npos) << flag;
    EXPECT_NE(usage.find("[" + flag + std::string(row.metavar) + "]"), std::string::npos) << flag;
  }
  EXPECT_EQ(flags, static_cast<int>(FlagSamples().size()));
}

TEST(KnobTable, UsageShowsDefaultsFromTheSettings) {
  const std::string usage = KnobUsage();
  const RunSettings defaults;
  EXPECT_NE(usage.find("(default " + std::to_string(defaults.run.spec.kv_repair_rate_bytes) + ")"),
            std::string::npos);
  EXPECT_NE(usage.find("(default " + std::to_string(defaults.run.budget) + ")"),
            std::string::npos);
  EXPECT_NE(usage.find("(default " +
                       std::to_string(defaults.real.config.gossip_interval.millis()) + ")"),
            std::string::npos);
  EXPECT_EQ(usage.find("{}"), std::string::npos);
  // Every row the real carrier reads starts from RealCarrierConfig().
  EXPECT_EQ(defaults.real.config.kv.repair_interval, RealCarrierConfig().kv.repair_interval);
}

TEST(KnobTable, FlagsLandInTheirFields) {
  Result<CliArgs> parsed = ParseCliArgs(
      {"--kv-repair-rate=0x1000", "--seed=010", "--nodes=010", "--kv-key-dist=zipf:1.5",
       "--bug=C5456", "--plant-kv-bug=repair-storm", "--plant-kv-bug", "--gossip-ms=50",
       "--guard-lateness-p99-ms=10", "--kv-consistency=one", "--kv-rate=+250"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const RunSettings& s = parsed.value().settings;
  // --bug applies first, so the knobs after it in argv still override.
  EXPECT_EQ(s.run.spec.id, "C5456");
  EXPECT_EQ(s.run.spec.kv_repair_rate_bytes, 4096);
  EXPECT_EQ(s.real.config.kv.repair_rate_bytes, 4096);
  EXPECT_EQ(s.run.seed, 8u);  // strtoull's octal, as before
  EXPECT_EQ(s.run.nodes, 10);  // atoi's decimal, as before
  EXPECT_EQ(s.run.spec.kv_key_dist, KvKeyDist::kZipf);
  EXPECT_DOUBLE_EQ(s.run.spec.kv_zipf_s, 1.5);
  EXPECT_TRUE(s.run.spec.check.plant_repair_storm);
  EXPECT_TRUE(s.real.config.check.plant_repair_storm);
  EXPECT_TRUE(s.run.spec.check.plant_kv_ack_before_sync);
  EXPECT_EQ(s.real.config.gossip_interval, VirtualDuration::Millis(50));
  EXPECT_EQ(s.run.spec.guard.lateness_p99_invalid, VirtualDuration::Millis(10));
  EXPECT_EQ(s.run.spec.guard.lateness_p99_degraded, VirtualDuration::Millis(5));
  EXPECT_EQ(s.run.spec.kv_consistency, KvConsistency::kOne);
  EXPECT_EQ(s.real.config.kv.consistency, KvConsistency::kOne);
  EXPECT_DOUBLE_EQ(s.run.spec.kv_ops_per_second, 250.0);
  // Knobs nobody set keep the real carrier's own defaults.
  EXPECT_EQ(s.real.config.kv.repair_interval, RealCarrierConfig().kv.repair_interval);
  EXPECT_EQ(s.real.config.vnodes_per_node, RealCarrierConfig().vnodes_per_node);
}

TEST(KnobTable, StrictValueParsingNamesTheFlag) {
  for (const char* arg : {"--seed=abc", "--kv-repair-rate=1e6", "--kv-rate=1oo", "--nodes=5x",
                          "--jobs=abc", "--nodes=100001", "--kv-rate=inf", "--seed=",
                          "--bogus", "--kv-key-dist=zipf:", "--kv-key-dist=uniform:2"}) {
    Result<CliArgs> parsed = ParseCliArgs({arg});
    ASSERT_FALSE(parsed.ok()) << arg;
    std::string flag(arg);
    flag = flag.substr(0, flag.find('='));
    EXPECT_NE(parsed.status().message().find(flag), std::string::npos)
        << arg << ": " << parsed.status().message();
  }
}

Status ModeError(const std::vector<std::string>& args) {
  Result<CliArgs> parsed = ParseCliArgs(args);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return SelectMode(parsed.value()).status();
}

TEST(KnobTable, ModeMasksComeFromWhatEachModeReads) {
  // Search-only flags outside search.
  for (const char* flag : {"--search-budget=3", "--search-seed=1", "--repro-out=x.json"}) {
    EXPECT_FALSE(ModeError({"--mode=suite", flag}).ok()) << flag;
    EXPECT_FALSE(ModeError({"--mode=real", flag}).ok()) << flag;
    EXPECT_TRUE(ModeError({"--mode=search", flag}).ok()) << flag;
  }
  // An artifact pins the scenario; flags repro would ignore are errors.
  for (const char* flag : {"--bug=C5456", "--nodes=64", "--seed=7", "--jobs=2", "--trace",
                           "--faults=island", "--kv-wal", "--kv-rate=10", "--plant-bug",
                           "--kv-repair-rate=4096", "--workload=failover"}) {
    EXPECT_FALSE(ModeError({"--repro=r.json", flag}).ok()) << flag;
    EXPECT_FALSE(ModeError({"--mode=repro", "--repro=r.json", flag}).ok()) << flag;
  }
  EXPECT_TRUE(ModeError({"--repro=r.json", "--json"}).ok());
  EXPECT_EQ(SelectMode(ParseCliArgs({"--repro=r.json"}).value()).value().kind,
            CliModeKind::kRepro);
  EXPECT_FALSE(ModeError({"--mode=repro"}).ok());
  EXPECT_FALSE(ModeError({"--mode=search", "--repro=r.json"}).ok());
  // The search minimum is a usage error, not the searcher's CHECK.
  Status small = ModeError({"--mode=search", "--nodes=4"});
  EXPECT_FALSE(small.ok());
  EXPECT_NE(small.message().find(std::to_string(kMinFaultSearchNodes)), std::string::npos);
  EXPECT_TRUE(ModeError({"--mode=search", "--nodes=5"}).ok());
  EXPECT_TRUE(ModeError({"--mode=suite", "--nodes=4"}).ok());
  // Socket knobs in simulated modes, BugSpec knobs on the real carrier.
  EXPECT_FALSE(ModeError({"--mode=real", "--kv-rate=100"}).ok());
  EXPECT_FALSE(ModeError({"--mode=real", "--plant-kv-bug=ack-before-sync"}).ok());
  EXPECT_TRUE(
      ModeError({"--mode=real", "--plant-kv-bug=repair-storm", "--kv-repair", "--kv-ops=8"}).ok());
  EXPECT_FALSE(ModeError({"--mode=suite", "--sim-modes=colo", "--kv-ops=8"}).ok());
  EXPECT_FALSE(ModeError({"--mode=search", "--faults=island"}).ok());
}

TEST(KnobTable, ExperimentModeReadsOnlyItsTableAndJobs) {
  Result<CliArgs> parsed = ParseCliArgs({"--mode=experiment", "--table=fig3a", "--jobs=4"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SelectMode(parsed.value()).value().kind, CliModeKind::kExperiment);
  EXPECT_STREQ(ExperimentName(parsed.value().settings.table), "fig3a");
  // No table to print.
  Status bare = ModeError({"--mode=experiment"});
  EXPECT_FALSE(bare.ok());
  EXPECT_NE(bare.message().find("--table"), std::string::npos) << bare.message();
  // An unknown table is a value error that lists the tables.
  Result<CliArgs> unknown = ParseCliArgs({"--mode=experiment", "--table=fig9"});
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("fig3a"), std::string::npos)
      << unknown.status().message();
  // --table in another mode, and a grid override in experiment mode: a row
  // declares its own grid.
  EXPECT_FALSE(ModeError({"--mode=suite", "--table=fig1"}).ok());
  EXPECT_FALSE(ModeError({"--table=fig1"}).ok());
  for (const char* flag : {"--nodes=16", "--seed=1", "--bug=C5456", "--json", "--trace",
                           "--sim-modes=colo"}) {
    EXPECT_FALSE(ModeError({"--mode=experiment", "--table=fig1", flag}).ok()) << flag;
  }
}

TEST(KnobTable, KvFlagsThatActOnNothingAreErrors) {
  // Every KV data-path flag needs KV load: --kv-rate in the simulated modes,
  // --kv-ops on the real carrier.
  for (const char* flag : {"--kv-consistency=all", "--kv-wal", "--kv-repair",
                           "--kv-repair-rate=4096", "--kv-repair-max-sessions=2",
                           "--plant-kv-bug", "--plant-kv-bug=repair-storm",
                           "--kv-key-dist=zipf:1.5"}) {
    const std::string arg(flag);
    Status status = ModeError({"--mode=suite", "--sim-modes=colo", arg});
    EXPECT_FALSE(status.ok()) << arg;
    EXPECT_EQ(status.message().rfind(arg.substr(0, arg.find('=')), 0), 0u) << status.message();
    EXPECT_NE(status.message().find("--kv-rate"), std::string::npos) << status.message();
  }
  for (const char* flag : {"--kv-wal", "--kv-repair", "--kv-consistency=one"}) {
    EXPECT_FALSE(ModeError({"--mode=real", flag}).ok()) << flag;
    EXPECT_FALSE(ModeError({"--mode=real", "--kv-ops=0", flag}).ok()) << flag;
    EXPECT_TRUE(ModeError({"--mode=real", "--kv-ops=8", flag}).ok()) << flag;
    EXPECT_TRUE(ModeError({"--mode=search", "--kv-rate=100", flag}).ok()) << flag;
  }
  EXPECT_FALSE(ModeError({"--mode=suite", "--kv-rate=0", "--kv-wal"}).ok());
  // The ack-before-sync plant needs the WAL; the repair knobs need repair.
  Status plant = ModeError({"--mode=search", "--kv-rate=100", "--plant-kv-bug"});
  EXPECT_FALSE(plant.ok());
  EXPECT_NE(plant.message().find("--kv-wal"), std::string::npos) << plant.message();
  EXPECT_TRUE(ModeError({"--mode=search", "--kv-rate=100", "--plant-kv-bug", "--kv-wal"}).ok());
  for (const char* flag :
       {"--plant-kv-bug=repair-storm", "--kv-repair-rate=4096", "--kv-repair-max-sessions=2"}) {
    for (const std::vector<std::string>& load :
         {std::vector<std::string>{"--mode=search", "--kv-rate=100"},
          std::vector<std::string>{"--mode=real", "--kv-ops=8"}}) {
      std::vector<std::string> args = load;
      args.push_back(flag);
      Status status = ModeError(args);
      EXPECT_FALSE(status.ok()) << flag;
      EXPECT_NE(status.message().find("--kv-repair"), std::string::npos) << status.message();
      args.push_back("--kv-repair");
      EXPECT_TRUE(ModeError(args).ok()) << flag;
    }
  }
}

TEST(KnobTable, EveryArtifactRowRoundTripsANonDefaultValue) {
  // A non-default JSON value per artifact key.
  const std::map<std::string, std::string> samples = {
      {"bug", "\"C5456\""},
      {"nodes", "12"},
      {"mode", "\"SC+PIL\""},
      {"seed", "7"},
      {"plant_left_join_bug", "true"},
      {"plant_kv_ack_before_sync", "true"},
      {"workload", "\"steady-state\""},
      {"kv_ops_per_second", "123.25"},
      {"kv_consistency", "\"all\""},
      {"kv_wal", "true"},
      {"kv_repair", "true"},
      {"kv_repair_interval_ns", "2000000000"},
      {"kv_repair_rate_bytes", "4096"},
      {"kv_repair_max_sessions", "3"},
      {"plant_repair_storm", "true"},
      {"kv_key_dist", "\"zipf\""},
      {"kv_zipf_s", "1.5"},
  };
  const std::string defaults = KnobJson(RunSettings{});
  int keys = 0;
  for (const Knob& row : KnobTable()) {
    if (row.key.empty()) {
      continue;
    }
    ++keys;
    const std::string key = "\"" + std::string(row.key) + "\":";
    auto sample = samples.find(std::string(row.key));
    ASSERT_NE(sample, samples.end()) << "no sample for " << row.key;
    size_t at = defaults.find(key);
    ASSERT_NE(at, std::string::npos) << row.key;
    at += key.size();
    size_t end = defaults.find_first_of(",}", at);
    ASSERT_NE(defaults.substr(at, end - at), sample->second) << row.key << " sample is the default";
    std::string text = defaults;
    text.replace(at, end - at, sample->second);

    Result<JsonValue> json = ParseJson(text);
    ASSERT_TRUE(json.ok()) << text;
    RunSettings read;
    Status status = ReadArtifactKnobs(json.value(), &read);
    ASSERT_TRUE(status.ok()) << row.key << ": " << status.ToString();
    EXPECT_EQ(KnobJson(read), text) << row.key;
  }
  EXPECT_EQ(keys, static_cast<int>(samples.size()));
}

TEST(KnobTable, ArtifactReaderRejectsBadValues) {
  const std::string good = KnobJson(RunSettings{});
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {"\"nodes\":64", "\"nodes\":1"},
           {"\"nodes\":64", "\"nodes\":\"64\""},
           {"\"kv_wal\":false", "\"kv_wal\":0"},
           {"\"kv_repair_rate_bytes\":262144", "\"kv_repair_rate_bytes\":0"},
           {"\"kv_repair_rate_bytes\":262144", "\"kv_repair_rate_bytes\":1.5"},
           {"\"kv_key_dist\":\"uniform\"", "\"kv_key_dist\":\"zipf:2\""},
           {"\"kv_zipf_s\":1", "\"kv_zipf_s\":0"},
           {"\"mode\":\"Colo\"", "\"mode\":\"Hybrid\""},
           {"\"seed\":24865850604", "\"seed\":-1"},
       }) {
    std::string text = good;
    size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    RunSettings read;
    Status status = ReadArtifactKnobs(ParseJson(text).value(), &read);
    EXPECT_FALSE(status.ok()) << to;
  }
  // A missing key is an error, not a default.
  std::string text = good;
  size_t at = text.find("\"kv_repair\":");
  text.erase(at, text.find(',', at) - at + 1);
  RunSettings read;
  EXPECT_FALSE(ReadArtifactKnobs(ParseJson(text).value(), &read).ok());
}

// The artifact's "mode" key is the one RunMode parser: the strict inverse of
// RunModeName, so every mode round-trips and no other name is guessed at.
TEST(RunModeNameTest, RoundTripsAndRejectsUnknown) {
  const std::string good = KnobJson(RunSettings{});
  const std::string from = "\"mode\":\"Colo\"";
  ASSERT_NE(good.find(from), std::string::npos);
  auto read_mode = [&](const std::string& name, RunSettings* read) {
    std::string text = good;
    text.replace(text.find(from), from.size(), "\"mode\":\"" + name + "\"");
    return ReadArtifactKnobs(ParseJson(text).value(), read);
  };
  for (RunMode mode : {RunMode::kRealScale, RunMode::kColocated, RunMode::kMemoize,
                       RunMode::kPilReplay, RunMode::kRealSockets}) {
    RunSettings read;
    ASSERT_TRUE(read_mode(RunModeName(mode), &read).ok()) << RunModeName(mode);
    EXPECT_EQ(read.run.mode, mode);
  }
  for (const char* unknown : {"Hybrid", "", "colo"}) {
    RunSettings read;
    EXPECT_FALSE(read_mode(unknown, &read).ok()) << unknown;
  }
}

// An artifact is held to the flag rule: a KV key that differs from the
// default needs what its row's KvNeeds names. Both edits of the
// kv-durability search artifact would otherwise plant nothing.
TEST(KnobTable, ArtifactKvKeysThatActOnNothingAreErrors) {
  auto check = [](const std::string& text) {
    RunSettings read;
    Status status = ReadArtifactKnobs(ParseJson(text).value(), &read);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return CheckArtifactKnobs(read);
  };
  EXPECT_TRUE(check(KnobJson(RunSettings{})).ok());
  Result<CliArgs> search =
      ParseCliArgs({"--bug=C3831-fixed", "--workload=steady-state", "--mode=search",
                    "--nodes=12", "--plant-kv-bug", "--kv-wal", "--kv-rate=100"});
  ASSERT_TRUE(search.ok());
  const std::string artifact = KnobJson(search.value().settings);
  EXPECT_TRUE(check(artifact).ok());
  for (const auto& [from, to, want] : std::vector<std::array<std::string, 3>>{
           {"\"kv_wal\":true", "\"kv_wal\":false",
            "\"plant_kv_ack_before_sync\" has no effect without \"kv_wal\": true"},
           {"\"kv_ops_per_second\":100", "\"kv_ops_per_second\":0",
            "\"plant_kv_ack_before_sync\" has no effect without KV load"},
           {"\"kv_repair_max_sessions\":1", "\"kv_repair_max_sessions\":2",
            "\"kv_repair_max_sessions\" has no effect without \"kv_repair\": true"},
       }) {
    std::string text = artifact;
    size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    Status status = check(text);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << to;
    EXPECT_NE(status.message().find(want), std::string::npos) << status.message();
  }
}

}  // namespace
}  // namespace scalecheck
