// Canonical CLI mode handling for scalecheck_cli.
//
// The CLI grew one mode spelling per feature (real/colo/memoize/replay/full/
// search, plus --repro as an implicit mode). This normalizes them to one
// enum with five values:
//
//   --mode=suite   simulation run(s); which deployments via --sim-modes=
//                  (default: all four, the Figure-3 comparison grid)
//   --mode=search  ChaosSearch over fault plans
//   --mode=repro   replay a search artifact (--repro=FILE)
//   --mode=real    REAL deployment: N in-process nodes on localhost TCP
//                  sockets and wall-clock timers (src/net/)
//   --mode=experiment  one EXPERIMENTS.md table (--table=NAME, see
//                  src/scalecheck/experiment_table.h)
//
// Any other spelling — including the retired ones (full, colo, memoize,
// replay, real-scale, sim-real) — is rejected. NOTE: bare --mode=real boots
// real sockets; the simulated real-scale deployment is --sim-modes=real.
//
// Kept in a library (not the CLI .cpp) so the mapping is unit-testable.

#ifndef SCALECHECK_SRC_SCALECHECK_CLI_MODES_H_
#define SCALECHECK_SRC_SCALECHECK_CLI_MODES_H_

#include <string>
#include <vector>

#include "src/cluster/config.h"
#include "src/common/result.h"

namespace scalecheck {

enum class CliModeKind : int {
  kSuite = 0,
  kSearch = 1,
  kRepro = 2,
  kReal = 3,
  kExperiment = 4,
};

const char* CliModeKindName(CliModeKind kind);

struct ModeSelection {
  CliModeKind kind = CliModeKind::kSuite;
  // kSuite only: the simulated deployments to run, in request order.
  std::vector<RunMode> sim_modes;

  // True when sim_modes is exactly the four-way comparison grid.
  bool IsFullGrid() const;
};

// One --sim-modes entry: real | real-scale | colo | memoize | replay.
Result<RunMode> SimModeFromFlag(const std::string& flag);

// Parses --mode plus the --sim-modes CSV. `sim_modes_csv` empty means the
// default grid; non-empty is only legal with --mode=suite.
Result<ModeSelection> ParseCliMode(const std::string& mode,
                                   const std::string& sim_modes_csv);

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_SCALECHECK_CLI_MODES_H_
