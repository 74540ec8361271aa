// The knob table: every scalecheck_cli flag and every scalecheck-repro-v1
// artifact key, declared once.
//
// A row names one setting: its flag, its artifact key, the modes that read
// it, its help, the kind and valid range of its value, and the RunSettings
// fields the value lands in. The CLI's argument parser, usage text and mode
// checks, and the repro artifact's writer and reader all walk this table;
// nothing else spells a flag or an artifact key.
//
// Kept in a library (not the CLI .cpp) so the table is unit-testable.

#ifndef SCALECHECK_SRC_SCALECHECK_KNOB_TABLE_H_
#define SCALECHECK_SRC_SCALECHECK_KNOB_TABLE_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"
#include "src/common/strings.h"
#include "src/faults/fault_search.h"
#include "src/net/real_cluster.h"
#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/cli_modes.h"
#include "src/scalecheck/experiment_table.h"

namespace scalecheck {

// Every value a scalecheck_cli invocation or a repro artifact declares, at
// its default until a row of the knob table sets it.
struct RunSettings {
  // The scenario every mode runs: the catalog entry --bug picks with the
  // knob overrides applied, its scale, seed and simulated deployment, and
  // the ChaosSearch around it. --mode=real reads the scale, seed and fault
  // plan from here too.
  FaultSearchConfig run{.spec = BugCatalog::Get("C3831"), .nodes = 64};
  // --mode=real: the socket carrier, starting from RealCarrierConfig().
  RealCluster::Options real;
  std::string mode = "suite";
  std::string sim_modes;  // --mode=suite: CSV of real|colo|memoize|replay
  bool trace = false;
  bool json = false;
  std::string repro_out;  // --mode=search: save the repro artifact here
  std::string repro;      // --mode=repro: the artifact to replay
  const ExperimentRow* table = nullptr;  // --mode=experiment: the table to print
};

// The mode bit of a row: 1 << CliModeKind.
constexpr unsigned ModeBit(CliModeKind kind) {
  return 1u << static_cast<unsigned>(kind);
}

// What a KV flag acts through besides its mode. SelectMode rejects the flag
// when the run lacks it, so a KV flag never silently acts on nothing.
enum class KvNeeds {
  kNothing,
  kLoad,    // KV client load: --kv-rate (or the bug's own), --kv-ops on real
  kWal,     // load and the WAL (--kv-wal)
  kRepair,  // load and anti-entropy repair (--kv-repair)
};

struct Knob {
  std::string_view flag = {};     // "--nodes"; empty: artifact only
  std::string_view key = {};      // artifact key; empty: CLI only
  unsigned modes = 0;             // ModeBit()s of the modes that read the flag
  std::string_view metavar = {};  // "=N" as in the synopsis; empty: a switch
  std::string_view help = {};     // usage text; "{}" shows the default value
  KvNeeds needs = KvNeeds::kNothing;
  // The value codec. `parse` takes the CLI text after '=' (nullopt for a
  // bare flag); `show` renders the current value as CLI text; `write` and
  // `read` are the artifact's JSON value. Errors name neither the flag nor
  // the key: the caller does.
  std::function<Status(std::optional<std::string_view>, RunSettings*)> parse = {};
  std::function<std::string(const RunSettings&)> show = {};
  std::function<void(const RunSettings&, JsonWriter*)> write = {};
  std::function<Status(const JsonValue&, RunSettings*)> read = {};
};

// Every row, in artifact key order.
const std::vector<Knob>& KnobTable();

struct CliArgs {
  RunSettings settings;
  std::vector<const Knob*> given;  // the rows set on the command line
};

// Parses scalecheck_cli's arguments (argv without the program name). Rows
// apply in table order, so --bug picks the catalog entry before any knob
// overrides it; a repeated flag's last value wins. Errors name the flag.
Result<CliArgs> ParseCliArgs(const std::vector<std::string>& args);

// The mode the arguments select (--repro=FILE implies --mode=repro), checked
// against what it reads: every given flag must be read by the mode and have
// what its KvNeeds names, search needs kMinFaultSearchNodes nodes, repro
// an artifact and experiment a table.
Result<ModeSelection> SelectMode(const CliArgs& args);

// The synopsis and one help entry per flag, each default shown from
// RunSettings{} (BugSpec{} and RealCarrierConfig() for every knob).
std::string KnobUsage();

// The artifact codec: every keyed row's field, in table order.
void WriteArtifactKnobs(const RunSettings& settings, JsonWriter* w);
// Reads every keyed row from `object` into `settings` (the "bug" row first,
// so the catalog entry comes before its overrides). A missing key, a wrong
// type or an out-of-range value is an error. Keys outside the table are the
// caller's to check.
Status ReadArtifactKnobs(const JsonValue& object, RunSettings* settings);
// Holds artifact settings to the rule SelectMode holds flags to: every keyed
// row whose value differs from RunSettings{} must have what its KvNeeds
// names, so an edited artifact cannot plant or arm something that acts on
// nothing. The error (kFailedPrecondition) names the key and what it needs.
Status CheckArtifactKnobs(const RunSettings& settings);

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_SCALECHECK_KNOB_TABLE_H_
