// The headline result as a regression test (a slow one, ~1-2 min): at 128
// nodes the C3831 symptom is invisible in real-scale testing AND PIL replay,
// while basic colocation already reports a storm — i.e. the left half of
// Figure 3(a). The full 256-node right half is the fig3a experiment-table
// row (scalecheck_cli --mode=experiment --table=fig3a).

#include <gtest/gtest.h>

#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/experiment_suite.h"

namespace scalecheck {
namespace {

TEST(Fig3Shape, C3831At128RealQuietColoStormsPilAgrees) {
  ScaleCheckResult r = RunComparison(BugCatalog::Get("C3831"), 128);

  // Real-scale 128-node testing passes: the bug is latent.
  EXPECT_EQ(r.real.flaps, 0) << r.real.Summary();
  EXPECT_TRUE(r.real.settled);

  // Basic colocation is far off: it reports a storm that real scale refutes.
  EXPECT_GT(r.colo.flaps, 500) << r.colo.Summary();
  EXPECT_GT(r.colo.stage_tasks_dropped, 0u);

  // PIL replay tracks real-scale testing, not the contended memoize run.
  EXPECT_EQ(r.replay.flaps, 0) << r.replay.Summary();
  EXPECT_EQ(r.replay.stage_tasks_dropped, 0u);
  EXPECT_GT(r.replay.pil.replay_hits, 0u);

  // And the offending duration at this scale sits inside the paper's
  // observed 0.001-4s band.
  EXPECT_GT(r.real.calc_duration_seconds.max(), 0.5);
  EXPECT_LT(r.real.calc_duration_seconds.max(), 4.0);
}

}  // namespace
}  // namespace scalecheck
