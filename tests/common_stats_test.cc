#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/common/strings.h"

namespace scalecheck {
namespace {

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-9);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeMatchesConcatenation) {
  RunningStat a, b, all;
  for (int i = 0; i < 50; ++i) {
    double v = i * 0.37;
    a.Add(v);
    all.Add(v);
  }
  for (int i = 0; i < 30; ++i) {
    double v = 100 - i;
    b.Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, empty;
  a.Add(3);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(LogHistogram, CountsAndMean) {
  LogHistogram h(1e3, 2.0, 32);
  for (int i = 1; i <= 100; ++i) {
    h.Add(i * 1000.0);
  }
  EXPECT_EQ(h.count(), 100);
  EXPECT_NEAR(h.mean(), 50500.0, 1e-6);
  EXPECT_DOUBLE_EQ(h.max_value(), 100000.0);
}

TEST(LogHistogram, PercentilesAreMonotone) {
  LogHistogram h(1e3, 1.5, 64);
  for (int i = 0; i < 10000; ++i) {
    h.Add(static_cast<double>((i * 997) % 100000));
  }
  double p50 = h.Percentile(50);
  double p90 = h.Percentile(90);
  double p99 = h.Percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max_value() + 1e-9);
}

TEST(LogHistogram, PercentileBoundsRoughlyRight) {
  LogHistogram h(1e3, 1.2, 96);
  for (int i = 1; i <= 1000; ++i) {
    h.Add(static_cast<double>(i));  // all in the first bucket (< 1000? no: 1..1000)
  }
  // Values fall in the first two buckets; p50 must be within [1, 1200].
  double p50 = h.Percentile(50);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 1200.0);
}

TEST(LogHistogram, EmptyPercentileIsZero) {
  LogHistogram h;
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
}

TEST(LogHistogram, DurationHelpers) {
  LogHistogram h;
  h.AddDuration(VirtualDuration::Millis(5));
  EXPECT_EQ(h.count(), 1);
  EXPECT_GE(h.PercentileDuration(99).nanos(), 1000000);
}

TEST(LogHistogram, MergeMatchesOneHistogramFedTheUnion) {
  // Per-node KV latency histograms fold into one run percentile this way.
  LogHistogram a(1e5, 1.5, 80);
  LogHistogram b(1e5, 1.5, 80);
  LogHistogram empty(1e5, 1.5, 80);
  LogHistogram both(1e5, 1.5, 80);
  for (int i = 0; i < 1000; ++i) {
    double fast = 2e5 + 997.0 * i;
    a.Add(fast);
    both.Add(fast);
  }
  // b's largest sample sits below its bucket's upper bound, so the high
  // percentiles are clamped to it: the merged max must be b's.
  for (double slow : {3e7, 4e7, 5.05e7}) {
    b.Add(slow);
    both.Add(slow);
  }
  LogHistogram merged = empty;
  merged.Merge(a);
  merged.Merge(empty);
  merged.Merge(b);
  EXPECT_EQ(merged.count(), both.count());
  EXPECT_DOUBLE_EQ(merged.max_value(), 5.05e7);
  EXPECT_DOUBLE_EQ(merged.Percentile(100), 5.05e7);
  for (double p : {50.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(merged.PercentileDuration(p), both.PercentileDuration(p)) << p;
  }

  // An empty side changes nothing.
  LogHistogram alone = a;
  alone.Merge(empty);
  EXPECT_EQ(alone.count(), a.count());
  EXPECT_EQ(alone.PercentileDuration(99), a.PercentileDuration(99));
}

TEST(LogHistogram, MergeOfAnotherLayoutDies) {
  LogHistogram a(1e5, 1.5, 80);
  EXPECT_DEATH(a.Merge(LogHistogram(1e5, 1.5, 96)), "");
  EXPECT_DEATH(a.Merge(LogHistogram(1e3, 1.5, 80)), "");
}

TEST(LogHistogram, SummaryMentionsCount) {
  LogHistogram h;
  h.Add(5.0);
  EXPECT_NE(h.Summary().find("n=1"), std::string::npos);
}

}  // namespace
}  // namespace scalecheck
