#include "src/scalecheck/cli_modes.h"

#include <algorithm>

namespace scalecheck {
namespace {

const std::vector<RunMode>& FullGrid() {
  static const std::vector<RunMode> kGrid = {
      RunMode::kRealScale, RunMode::kColocated, RunMode::kMemoize,
      RunMode::kPilReplay};
  return kGrid;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(csv.substr(start));
      break;
    }
    parts.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

}  // namespace

const char* CliModeKindName(CliModeKind kind) {
  switch (kind) {
    case CliModeKind::kSuite:
      return "suite";
    case CliModeKind::kSearch:
      return "search";
    case CliModeKind::kRepro:
      return "repro";
    case CliModeKind::kReal:
      return "real";
    case CliModeKind::kExperiment:
      return "experiment";
  }
  return "?";
}

bool ModeSelection::IsFullGrid() const {
  if (kind != CliModeKind::kSuite || sim_modes.size() != FullGrid().size()) {
    return false;
  }
  // Order-insensitive: the grid executor fixes its own order anyway.
  for (RunMode mode : FullGrid()) {
    if (std::count(sim_modes.begin(), sim_modes.end(), mode) != 1) {
      return false;
    }
  }
  return true;
}

Result<RunMode> SimModeFromFlag(const std::string& flag) {
  if (flag == "real" || flag == "real-scale") {
    return RunMode::kRealScale;
  }
  if (flag == "colo") {
    return RunMode::kColocated;
  }
  if (flag == "memoize") {
    return RunMode::kMemoize;
  }
  if (flag == "replay") {
    return RunMode::kPilReplay;
  }
  return Status::InvalidArgument("unknown sim mode '" + flag +
                                 "' (want real|colo|memoize|replay)");
}

Result<ModeSelection> ParseCliMode(const std::string& mode,
                                   const std::string& sim_modes_csv) {
  ModeSelection sel;
  if (mode == "suite") {
    sel.kind = CliModeKind::kSuite;
    if (sim_modes_csv.empty()) {
      sel.sim_modes = FullGrid();
    } else {
      for (const std::string& part : SplitCsv(sim_modes_csv)) {
        Result<RunMode> parsed = SimModeFromFlag(part);
        if (!parsed.ok()) {
          return parsed.status();
        }
        if (std::count(sel.sim_modes.begin(), sel.sim_modes.end(),
                       parsed.value()) > 0) {
          return Status::InvalidArgument("duplicate sim mode '" + part + "'");
        }
        sel.sim_modes.push_back(parsed.value());
      }
    }
    return sel;
  }
  if (mode == "search" || mode == "repro" || mode == "real" || mode == "experiment") {
    if (!sim_modes_csv.empty()) {
      return Status::InvalidArgument("--sim-modes only applies to --mode=suite");
    }
    sel.kind = mode == "search"  ? CliModeKind::kSearch
               : mode == "repro" ? CliModeKind::kRepro
               : mode == "real"  ? CliModeKind::kReal
                                 : CliModeKind::kExperiment;
    return sel;
  }
  return Status::InvalidArgument(
      "unknown mode '" + mode + "' (want suite|search|repro|real|experiment)");
}

}  // namespace scalecheck
