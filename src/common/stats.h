// Streaming statistics and a log-bucketed histogram for latency/lateness
// distributions. Percentiles are approximate (bucket upper bound), which is
// adequate for the colocation-limit lateness metric.

#ifndef SCALECHECK_SRC_COMMON_STATS_H_
#define SCALECHECK_SRC_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace scalecheck {

// Welford-style running mean/variance with min/max.
class RunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& other);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Histogram over non-negative values with geometrically growing buckets.
// Bucket i covers [base * growth^(i-1), base * growth^i); bucket 0 covers
// [0, base).
class LogHistogram {
 public:
  // base: upper bound of the first bucket; growth: bucket width ratio (> 1).
  explicit LogHistogram(double base = 1e3, double growth = 1.5, int num_buckets = 96);

  void Add(double value);
  void AddDuration(VirtualDuration d) { Add(static_cast<double>(d.nanos())); }
  // Adds every sample of `other`, which must have the same bucket layout.
  // Exact: percentiles read only bucket counts and the max, so the merge
  // answers as one histogram fed both sample sets would.
  void Merge(const LogHistogram& other);

  int64_t count() const { return count_; }
  // Approximate percentile (p in [0, 100]); returns a bucket upper bound.
  double Percentile(double p) const;
  VirtualDuration PercentileDuration(double p) const {
    return VirtualDuration::Nanos(static_cast<int64_t>(Percentile(p)));
  }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  double max_value() const { return max_; }

  std::string Summary() const;

 private:
  double BucketUpperBound(size_t i) const;

  double base_;
  double growth_;
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_COMMON_STATS_H_
