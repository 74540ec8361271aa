#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/scale_check.h"
#include "src/sim/trace.h"

namespace scalecheck {
namespace {

VirtualTime At(int64_t s) { return VirtualTime::Zero() + VirtualDuration::Seconds(s); }

TEST(TraceRecorderTest, DigestCoversAllEvents) {
  TraceRecorder a;
  TraceRecorder b;
  a.Record(At(1), TraceKind::kConviction, 1, 2);
  b.Record(At(1), TraceKind::kConviction, 1, 2);
  EXPECT_EQ(a.ComputeDigest(), b.ComputeDigest());
  b.Record(At(2), TraceKind::kRescue, 1, 2);
  EXPECT_NE(a.ComputeDigest(), b.ComputeDigest());
  EXPECT_EQ(b.total_events(), 2u);
}

TEST(TraceRecorderTest, DigestSensitiveToFields) {
  auto digest_of = [](TraceKind kind, NodeId node, NodeId peer, int64_t detail) {
    TraceRecorder t;
    t.Record(At(1), kind, node, peer, detail);
    return t.ComputeDigest();
  };
  DigestValue base = digest_of(TraceKind::kConviction, 1, 2, 0);
  EXPECT_NE(digest_of(TraceKind::kRescue, 1, 2, 0), base);
  EXPECT_NE(digest_of(TraceKind::kConviction, 3, 2, 0), base);
  EXPECT_NE(digest_of(TraceKind::kConviction, 1, 3, 0), base);
  EXPECT_NE(digest_of(TraceKind::kConviction, 1, 2, 9), base);
}

TEST(TraceRecorderTest, TailIsBoundedButDigestIsNot) {
  TraceRecorder small(/*tail_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    small.Record(At(i), TraceKind::kCustom, i);
  }
  EXPECT_EQ(small.Tail().size(), 4u);
  EXPECT_EQ(small.Tail().front().node, 6);  // oldest retained
  EXPECT_EQ(small.total_events(), 10u);
}

TEST(TraceRecorderTest, DumpTailRenders) {
  TraceRecorder t;
  t.Record(At(1), TraceKind::kStatusChange, 3, 4, 2, "LEAVING");
  std::string dump = t.DumpTail();
  EXPECT_NE(dump.find("status"), std::string::npos);
  EXPECT_NE(dump.find("n3"), std::string::npos);
  EXPECT_NE(dump.find("LEAVING"), std::string::npos);
}

TEST(TraceRecorderTest, ClearResets) {
  TraceRecorder t;
  t.Record(At(1), TraceKind::kCustom, 1);
  DigestValue with_one = t.ComputeDigest();
  t.Clear();
  EXPECT_EQ(t.total_events(), 0u);
  EXPECT_NE(t.ComputeDigest(), with_one);
}

// The property the scale-check scheme leans on: identical configuration =>
// byte-identical behaviour, witnessed by the trace digest over every
// status change, conviction, rescue, calc, and crash in the run.
TEST(ClusterTraceDeterminism, SameSeedSameTraceDigest) {
  auto run_digest = [] {
    BugSpec spec = BugCatalog::Get("C3831");
    Cluster::Options options = spec.MakeClusterOptions(12, RunMode::kRealScale, 77);
    options.enable_trace = true;
    Cluster cluster(std::move(options));
    cluster.Run();
    return cluster.trace()->ComputeDigest();
  };
  DigestValue first = run_digest();
  DigestValue second = run_digest();
  EXPECT_EQ(first, second);
}

TEST(ClusterTraceDeterminism, DifferentSeedDifferentTrace) {
  auto run_digest = [](uint64_t seed) {
    BugSpec spec = BugCatalog::Get("C3831");
    Cluster::Options options = spec.MakeClusterOptions(12, RunMode::kRealScale, seed);
    options.enable_trace = true;
    Cluster cluster(std::move(options));
    cluster.Run();
    return cluster.trace()->ComputeDigest();
  };
  EXPECT_NE(run_digest(77), run_digest(78));
}

}  // namespace
}  // namespace scalecheck
