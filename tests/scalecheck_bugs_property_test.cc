// Property sweep: the full scale-check pipeline must behave for EVERY bug
// scenario in the catalog — settle, hit the memo DB, keep determinism, and
// agree with real-scale testing at quiet scales.

#include <gtest/gtest.h>

#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/experiment_suite.h"

namespace scalecheck {
namespace {

class BugCatalogTest : public ::testing::TestWithParam<int> {
 protected:
  static const BugSpec& SpecFor(int index) {
    return BugCatalog::All()[static_cast<size_t>(index)];
  }
};

TEST(BugCatalogRegistry, LookupMatchesEnumeration) {
  ASSERT_EQ(BugCatalog::All().size(), 6u);
  for (const BugSpec& spec : BugCatalog::All()) {
    EXPECT_EQ(BugCatalog::Get(spec.id).description, spec.description);
    EXPECT_EQ(BugCatalog::TryGet(spec.id), &BugCatalog::Get(spec.id));
  }
  EXPECT_EQ(BugCatalog::TryGet("no-such-bug"), nullptr);
  EXPECT_EQ(BugCatalog::Ids().size(), BugCatalog::All().size());
}

TEST_P(BugCatalogTest, FullPipelineAtQuietScale) {
  const BugSpec& spec = SpecFor(GetParam());
  ScaleCheckResult full = RunComparison(spec, 10, 1234);

  // At 10 nodes every scenario is quiet and settles in every mode.
  EXPECT_TRUE(full.real.settled) << spec.id << ": " << full.real.Summary();
  EXPECT_TRUE(full.colo.settled) << spec.id;
  EXPECT_TRUE(full.memoize.settled) << spec.id;
  EXPECT_TRUE(full.replay.settled) << spec.id;
  EXPECT_EQ(full.real.flaps, 0) << spec.id;
  EXPECT_EQ(full.replay.flaps, 0) << spec.id;

  // The memoization DB was used and never contradicted itself.
  EXPECT_GT(full.memo.records, 0u) << spec.id;
  EXPECT_EQ(full.memo.determinism_violations, 0u) << spec.id;
  EXPECT_GT(full.replay.pil.replay_hits, 0u) << spec.id;
  EXPECT_EQ(full.replay.pil.direct_runs, 0u) << spec.id;

  // Memoize is behaviourally identical to colo (recording must not perturb).
  EXPECT_EQ(full.memoize.flaps, full.colo.flaps) << spec.id;
  EXPECT_EQ(full.memoize.events_executed, full.colo.events_executed) << spec.id;
}

INSTANTIATE_TEST_SUITE_P(AllBugs, BugCatalogTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace scalecheck
