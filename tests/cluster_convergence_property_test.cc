// Property sweep: gossip convergence from scratch must hold across cluster
// sizes and message-loss rates — the anti-entropy protocol's job.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/cluster/cluster.h"

namespace scalecheck {
namespace {

// The test name is a byte dump of this struct (it has no printer), so every
// byte must be defined: `filler` occupies what would otherwise be padding
// holding stack garbage, which made the names differ from build to build.
struct ConvergenceCase {
  int nodes;
  int32_t filler;
  double loss;
  uint64_t seed;
};

ConvergenceCase Case(int nodes, double loss, uint64_t seed) {
  return ConvergenceCase{nodes, 0, loss, seed};
}

static_assert(sizeof(ConvergenceCase) == 24, "ConvergenceCase must have no padding");

class ConvergenceTest : public ::testing::TestWithParam<ConvergenceCase> {};

TEST_P(ConvergenceTest, FreshBootstrapConverges) {
  const ConvergenceCase& c = GetParam();
  ClusterConfig config;
  config.initial_nodes = c.nodes;
  config.calc_version = CalcVersion::kV3C3881Fix;
  config.run_mode = RunMode::kRealScale;
  config.seed = c.seed;

  WorkloadSpec wl;
  wl.kind = WorkloadKind::kBootstrapFresh;
  wl.horizon = VirtualDuration::Seconds(300);

  Cluster::Options options;
  options.config = config;
  options.workload = wl;
  options.network.loss_probability = c.loss;
  Cluster cluster(std::move(options));
  RunResult r = cluster.Run();

  ASSERT_TRUE(r.settled) << r.Summary();
  for (size_t i = 0; i < cluster.total_nodes(); ++i) {
    Node* node = cluster.node(static_cast<NodeId>(i));
    EXPECT_EQ(node->core().gossiper().endpoints().size(), cluster.total_nodes())
        << "node " << i << " endpoint map incomplete";
    EXPECT_EQ(node->core().ring().num_nodes(), cluster.total_nodes())
        << "node " << i << " ring incomplete";
    // All rings must agree exactly.
    EXPECT_EQ(node->core().ring().ComputeDigest(), cluster.node(0)->core().ring().ComputeDigest())
        << "node " << i << " ring diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvergenceTest,
    ::testing::Values(Case(6, 0.0, 1), Case(12, 0.0, 2), Case(20, 0.0, 3),
                      Case(12, 0.05, 4), Case(12, 0.15, 5), Case(8, 0.25, 6)));

}  // namespace
}  // namespace scalecheck
