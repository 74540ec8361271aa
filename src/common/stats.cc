#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/strings.h"

namespace scalecheck {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  int64_t n = count_ + other.count_;
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  mean_ += delta * nb / static_cast<double>(n);
  m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ = n;
}

double RunningStat::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

LogHistogram::LogHistogram(double base, double growth, int num_buckets)
    : base_(base), growth_(growth), buckets_(static_cast<size_t>(num_buckets), 0) {
  CHECK_GT(base, 0.0);
  CHECK_GT(growth, 1.0);
  CHECK_GT(num_buckets, 1);
}

void LogHistogram::Add(double value) {
  CHECK_GE(value, 0.0);
  size_t idx = 0;
  if (value >= base_) {
    idx = 1 + static_cast<size_t>(std::log(value / base_) / std::log(growth_));
    idx = std::min(idx, buckets_.size() - 1);
  }
  ++buckets_[idx];
  ++count_;
  sum_ += value;
  max_ = std::max(max_, value);
}

void LogHistogram::Merge(const LogHistogram& other) {
  CHECK_EQ(base_, other.base_);
  CHECK_EQ(growth_, other.growth_);
  CHECK_EQ(buckets_.size(), other.buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

double LogHistogram::BucketUpperBound(size_t i) const {
  if (i == 0) {
    return base_;
  }
  return base_ * std::pow(growth_, static_cast<double>(i));
}

double LogHistogram::Percentile(double p) const {
  CHECK_GE(p, 0.0);
  CHECK_LE(p, 100.0);
  if (count_ == 0) {
    return 0.0;
  }
  int64_t target = static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(count_)));
  target = std::max<int64_t>(target, 1);
  int64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return std::min(BucketUpperBound(i), max_);
    }
  }
  return max_;
}

std::string LogHistogram::Summary() const {
  return StrFormat("n=%lld mean=%.3g p50=%.3g p99=%.3g max=%.3g",
                   static_cast<long long>(count_), mean(), Percentile(50),
                   Percentile(99), max_);
}

}  // namespace scalecheck
