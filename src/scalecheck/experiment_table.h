// The experiment table: every EXPERIMENTS.md table, declared once.
//
// A row names one table: the grid of simulated deployments it runs (bugs,
// modes, scales, seeds) and the formatter that turns the grid's report into
// markdown. `scalecheck_cli --mode=experiment --table=NAME` prints a row's
// output, scripts/regen_experiments.sh splices it between the row's
// `<!-- experiment:NAME -->` and `<!-- /experiment -->` markers in
// EXPERIMENTS.md, and tests/experiment_table_test.cc regenerates every row
// whose largest deployment is small enough for the tier-1 suite and diffs it
// against the marked block. Nothing else spells a table's parameters.
//
// A row's output holds only deterministic values; host timings go to the
// caller's log (stderr on the CLI). Rows whose formatter deploys nothing
// through ExperimentSuite (the bug study, the cost-model sweep, the finder,
// the Figure 1 batches, the DFS substrate) leave `grid.bugs` empty and read
// their sizes from `grid.scales`.

#ifndef SCALECHECK_SRC_SCALECHECK_EXPERIMENT_TABLE_H_
#define SCALECHECK_SRC_SCALECHECK_EXPERIMENT_TABLE_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/scalecheck/experiment_suite.h"

namespace scalecheck {

struct ExperimentRow {
  const char* name;     // --table=NAME and the EXPERIMENTS.md marker
  const char* caption;  // first line of the output; the seeds follow it
  // The simulated deployments. With no bugs the suite is not run and the
  // formatter deploys `scales` itself.
  ExperimentSpec grid;
  // The markdown tables for `report` (empty when grid.bugs is); host
  // timings are appended to `log`. An error fails the row (exit 1).
  Result<std::string> (*format)(const ExperimentRow& row, const SuiteReport& report,
                                std::string* log);

  // The largest simulated deployment, in nodes (0 when it deploys none).
  int LargestDeployment() const;
};

// Every row, in EXPERIMENTS.md order.
const std::vector<ExperimentRow>& ExperimentTable();

// `row`'s name; "none" for nullptr (the --table knob's unset value).
const char* ExperimentName(const ExperimentRow* row);

// Runs `row`'s grid on `jobs` host threads (which moves no output byte) and
// returns the caption, a blank line and the formatter's tables.
Result<std::string> RunExperiment(const ExperimentRow& row, int jobs, std::string* log);

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_SCALECHECK_EXPERIMENT_TABLE_H_
