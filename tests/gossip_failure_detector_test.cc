// The phi accrual detector, and its arrival window against the ring of
// doubles it replaced: the window stores intervals as 32-bit nanosecond slots
// in pooled chunks, and must give the same MeanIntervalSeconds and Phi bit for
// bit. This binary replaces the global operator new with a counting one
// (each test file links into its own binary, so the replacement stays here)
// to show that full windows roll over without allocating.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/gossip/failure_detector.h"

namespace {
std::atomic<uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace scalecheck {
namespace {

VirtualTime At(double s) {
  return VirtualTime::Zero() + VirtualDuration::FromSecondsF(s);
}

PhiAccrualFailureDetector MakeFd(double threshold = 8.0) {
  PhiAccrualFailureDetector::Config cfg;
  cfg.threshold = threshold;
  return PhiAccrualFailureDetector(cfg);
}

// The window's previous storage, kept as the reference model: a ring of
// interval seconds over a flat vector.
class RingWindow {
 public:
  RingWindow(size_t max_samples, VirtualDuration initial_interval)
      : max_samples_(std::max<size_t>(max_samples, 2)) {
    samples_.push_back(initial_interval.seconds());
    samples_.push_back(initial_interval.seconds());
    count_ = 2;
    sum_ = 2.0 * initial_interval.seconds();
  }

  void Add(VirtualTime now) {
    if (has_arrival_) {
      double interval = (now - last_).seconds();
      sum_ += interval;
      if (count_ < max_samples_) {
        samples_.push_back(interval);
        ++count_;
      } else {
        sum_ -= samples_[head_];
        samples_[head_] = interval;
        head_ = (head_ + 1) % max_samples_;
      }
    }
    last_ = now;
    has_arrival_ = true;
  }

  double Phi(VirtualTime now) const {
    if (!has_arrival_) {
      return 0.0;
    }
    double elapsed = (now - last_).seconds();
    if (elapsed <= 0.0) {
      return 0.0;
    }
    double mean = sum_ / static_cast<double>(count_);
    if (mean <= 0.0) {
      return 0.0;
    }
    return kPhiFactor * elapsed / mean;
  }

  double MeanIntervalSeconds() const { return sum_ / static_cast<double>(count_); }
  size_t sample_count() const { return count_; }

 private:
  size_t max_samples_;
  std::vector<double> samples_;
  size_t head_ = 0;
  size_t count_ = 0;
  double sum_ = 0.0;
  VirtualTime last_;
  bool has_arrival_ = false;
};

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

// Gaps around the escape threshold, and beyond it.
constexpr int64_t kSlotMax = (int64_t{1} << 32) - 2;  // the largest unescaped gap
constexpr int64_t kHourNs = int64_t{3600} * 1'000'000'000;
constexpr int64_t kEdgeGaps[] = {0, 1, kSlotMax, kSlotMax + 1, kSlotMax + 2, 7 * kHourNs};

int64_t Below(Rng& rng, int64_t n) { return rng.UniformInt(0, n - 1); }

// A random gap: mostly heartbeat-like, with zero gaps, gaps at the escape
// threshold, flap-length gaps of hours and the odd backward step.
int64_t RandomGap(Rng& rng) {
  int64_t pick = Below(rng, 100);
  if (pick < 60) {
    return Below(rng, 3'000'000'000);
  }
  if (pick < 70) {
    return 0;
  }
  if (pick < 85) {
    return kEdgeGaps[Below(rng, std::size(kEdgeGaps))];
  }
  if (pick < 95) {
    return Below(rng, 1000) * kHourNs + Below(rng, 1'000'000'000);
  }
  return -Below(rng, 5'000'000'000);
}

// Drives a window and the reference through the same arrivals, comparing
// MeanIntervalSeconds and Phi bit for bit after each one.
void ExpectSameAsRing(size_t max_samples, VirtualDuration initial,
                      const std::vector<int64_t>& gaps) {
  IntervalPool pool;
  ArrivalWindow window(max_samples, initial, &pool);
  RingWindow ring(max_samples, initial);
  VirtualTime now = VirtualTime::Zero() + VirtualDuration::Seconds(1);
  for (size_t i = 0; i < gaps.size(); ++i) {
    now = now + VirtualDuration::Nanos(gaps[i]);
    window.Add(now);
    ring.Add(now);
    ASSERT_EQ(window.sample_count(), ring.sample_count()) << "arrival " << i;
    ASSERT_EQ(Bits(window.MeanIntervalSeconds()), Bits(ring.MeanIntervalSeconds()))
        << "max_samples " << max_samples << ", arrival " << i;
    for (int64_t probe : {int64_t{0}, int64_t{250'000'000}, int64_t{20'000'000'000}}) {
      VirtualTime at = now + VirtualDuration::Nanos(probe);
      ASSERT_EQ(Bits(window.Phi(at)), Bits(ring.Phi(at)))
          << "max_samples " << max_samples << ", arrival " << i << ", probe " << probe;
    }
  }
}

constexpr size_t kMaxSamples[] = {2, 3, 13, 14, 15, 28, 1000};

TEST(ArrivalWindowDifferential, MatchesTheRingOfDoublesOnRandomArrivals) {
  for (size_t max_samples : kMaxSamples) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed * 7919 + max_samples);
      std::vector<int64_t> gaps(2500);
      for (int64_t& gap : gaps) {
        gap = RandomGap(rng);
      }
      // Even seeds prime with an interval that itself needs an escape.
      VirtualDuration initial = seed % 2 == 1 ? VirtualDuration::Seconds(1)
                                              : VirtualDuration::Nanos(kSlotMax + 1 + seed);
      ExpectSameAsRing(max_samples, initial, gaps);
    }
  }
}

TEST(ArrivalWindowDifferential, EscapesAtEveryChunkOffset) {
  // `lead` one-slot gaps after the two priming slots put the next escape's
  // three slots at every offset within a chunk, so some straddle the chunk
  // boundary in each of the two ways (1+2 and 2+1 slots), and evictions pop
  // them across it again.
  for (size_t max_samples : kMaxSamples) {
    for (size_t lead = 0; lead < IntervalPool::kSlotsPerChunk; ++lead) {
      std::vector<int64_t> gaps(lead, 1'000'000'000);
      for (int round = 0; round < 40; ++round) {
        gaps.push_back(kEdgeGaps[round % std::size(kEdgeGaps)]);
        gaps.push_back(kSlotMax + 1 + round);
        gaps.push_back(3 * kHourNs);
      }
      ExpectSameAsRing(max_samples, VirtualDuration::Seconds(1), gaps);
    }
  }
}

TEST(ArrivalWindow, PhiZeroBeforeArrivals) {
  IntervalPool pool;
  ArrivalWindow w(100, VirtualDuration::Seconds(1), &pool);
  EXPECT_DOUBLE_EQ(w.Phi(At(100)), 0.0);
  EXPECT_FALSE(w.has_arrivals());
}

TEST(ArrivalWindow, PhiGrowsMonotonicallyInSilence) {
  IntervalPool pool;
  ArrivalWindow w(100, VirtualDuration::Seconds(1), &pool);
  w.Add(At(0));
  w.Add(At(1));
  double last = 0;
  for (int s = 2; s < 40; ++s) {
    double phi = w.Phi(At(s));
    EXPECT_GT(phi, last);
    last = phi;
  }
}

TEST(ArrivalWindow, PhiResetsOnArrival) {
  IntervalPool pool;
  ArrivalWindow w(100, VirtualDuration::Seconds(1), &pool);
  w.Add(At(0));
  w.Add(At(1));
  double before = w.Phi(At(20));
  w.Add(At(20));
  EXPECT_LT(w.Phi(At(20.5)), before);
}

TEST(ArrivalWindow, KnownPhiValue) {
  // Mean interval primed at exactly 1s: phi(t) = 0.4343 * elapsed.
  IntervalPool pool;
  ArrivalWindow w(100, VirtualDuration::Seconds(1), &pool);
  w.Add(At(0));
  w.Add(At(1));  // interval sample: 1s, window mean stays 1s
  EXPECT_NEAR(w.Phi(At(1 + 10)), 4.343, 0.01);
  EXPECT_NEAR(w.MeanIntervalSeconds(), 1.0, 1e-9);
}

TEST(ArrivalWindow, WindowAdaptsToSlowerIntervals) {
  IntervalPool pool;
  ArrivalWindow w(4, VirtualDuration::Seconds(1), &pool);
  double t = 0;
  for (int i = 0; i < 20; ++i) {
    t += 5.0;  // consistently slow heartbeats
    w.Add(At(t));
  }
  EXPECT_NEAR(w.MeanIntervalSeconds(), 5.0, 1e-9);
  // 10s of silence is only 2 mean intervals now: low suspicion.
  EXPECT_LT(w.Phi(At(t + 10)), 1.0);
}

TEST(PhiAccrualFd, ConvictsAfterLongSilence) {
  PhiAccrualFailureDetector fd = MakeFd();
  fd.Report(7, At(0));
  fd.Report(7, At(1));
  fd.Report(7, At(2));
  EXPECT_FALSE(fd.IsConvicted(7, At(5)));
  // phi crosses 8 at elapsed ~ 8/0.4343 ~ 18.4 mean intervals.
  EXPECT_TRUE(fd.IsConvicted(7, At(2 + 20)));
}

TEST(PhiAccrualFd, UnknownEndpointNeverConvicted) {
  PhiAccrualFailureDetector fd = MakeFd();
  EXPECT_DOUBLE_EQ(fd.Phi(42, At(1000)), 0.0);
  EXPECT_FALSE(fd.IsConvicted(42, At(1000)));
  EXPECT_FALSE(fd.IsMonitoring(42));
}

TEST(PhiAccrualFd, ForgetStopsMonitoring) {
  PhiAccrualFailureDetector fd = MakeFd();
  fd.Report(7, At(0));
  EXPECT_TRUE(fd.IsMonitoring(7));
  fd.Forget(7);
  EXPECT_FALSE(fd.IsMonitoring(7));
  EXPECT_DOUBLE_EQ(fd.Phi(7, At(50)), 0.0);
}

TEST(PhiAccrualFd, DuplicateReportsWithinMinIntervalIgnored) {
  PhiAccrualFailureDetector fd = MakeFd();
  fd.Report(7, At(0));
  fd.Report(7, At(1));
  double phi_before = fd.Phi(7, At(3));
  // A burst of reports 1ms apart must not poison the window mean.
  fd.Report(7, At(3));
  fd.Report(7, At(3.001));
  fd.Report(7, At(3.002));
  EXPECT_GT(fd.Phi(7, At(6)), phi_before * 0.5);
}

class PhiThresholdTest : public ::testing::TestWithParam<double> {};

TEST_P(PhiThresholdTest, ConvictionTimeScalesWithThreshold) {
  double threshold = GetParam();
  PhiAccrualFailureDetector::Config cfg;
  cfg.threshold = threshold;
  PhiAccrualFailureDetector fd(cfg);
  fd.Report(1, At(0));
  fd.Report(1, At(1));
  // Mean interval 1s: conviction at elapsed = threshold / 0.4343.
  double conviction_elapsed = threshold / 0.4342944819032518;
  EXPECT_FALSE(fd.IsConvicted(1, At(1 + conviction_elapsed * 0.95)));
  EXPECT_TRUE(fd.IsConvicted(1, At(1 + conviction_elapsed * 1.05)));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, PhiThresholdTest,
                         ::testing::Values(2.0, 5.0, 8.0, 12.0, 16.0));

// Reports `rounds` heartbeats, 1 s apart, for endpoints [0, peers).
VirtualTime ReportRounds(PhiAccrualFailureDetector& fd, int peers, int rounds,
                         VirtualTime start) {
  VirtualTime now = start;
  for (int r = 0; r < rounds; ++r) {
    now = now + VirtualDuration::Seconds(1);
    for (NodeId peer = 0; peer < peers; ++peer) {
      fd.Report(peer, now);
    }
  }
  return now;
}

TEST(PhiAccrualFd, ForgetThenReportReusesChunks) {
  PhiAccrualFailureDetector fd = MakeFd();
  EXPECT_EQ(fd.window_bytes(), 0u);
  VirtualTime now = ReportRounds(fd, 40, 60, VirtualTime::Zero());
  size_t bytes = fd.window_bytes();
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(bytes % IntervalPool::kSlabBytes, 0u);
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (NodeId peer = 0; peer < 40; ++peer) {
      fd.Forget(peer);
    }
    now = ReportRounds(fd, 40, 60, now);
    EXPECT_EQ(fd.window_bytes(), bytes) << "cycle " << cycle;
  }
}

TEST(PhiAccrualFd, MoveAssignOverLiveWindowsAsRestartDoes) {
  PhiAccrualFailureDetector::Config cfg;
  cfg.window_size = 15;
  PhiAccrualFailureDetector fd(cfg);
  VirtualTime now = ReportRounds(fd, 8, 50, VirtualTime::Zero());
  ASSERT_TRUE(fd.IsMonitoring(3));
  // The old pool goes before the old windows; neither may touch the other.
  fd = PhiAccrualFailureDetector(cfg);
  EXPECT_FALSE(fd.IsMonitoring(3));
  EXPECT_EQ(fd.window_bytes(), 0u);

  // A moved detector keeps using its windows' chunks: the windows point at
  // the pool, not at the detector.
  now = ReportRounds(fd, 8, 50, now);
  PhiAccrualFailureDetector moved(std::move(fd));
  RingWindow ring(cfg.window_size, cfg.initial_interval);
  VirtualTime t = VirtualTime::Zero() + VirtualDuration::Seconds(50);
  for (int r = 0; r < 50; ++r) {
    t = t + VirtualDuration::Seconds(1);
    ring.Add(t);
  }
  for (int r = 0; r < 30; ++r) {
    now = now + VirtualDuration::Millis(900 + 100 * (r % 5));
    moved.Report(2, now);
    ring.Add(now);
    EXPECT_EQ(Bits(moved.Phi(2, now + VirtualDuration::Seconds(3))),
              Bits(ring.Phi(now + VirtualDuration::Seconds(3))));
  }
}

TEST(PhiAccrualFd, FullWindowsRollOverWithoutAllocating) {
  PhiAccrualFailureDetector::Config cfg;
  cfg.window_size = 28;
  PhiAccrualFailureDetector fd(cfg);
  constexpr int kPeers = 10;
  // Warm: every window full, with an escaped gap in each so rollover also
  // pops and pushes three-slot samples.
  VirtualTime now = ReportRounds(fd, kPeers, 40, VirtualTime::Zero());
  now = now + VirtualDuration::Seconds(5);
  now = ReportRounds(fd, kPeers, 40, now);
  size_t bytes = fd.window_bytes();

  uint64_t before = g_news.load();
  for (int r = 0; r < 1000; ++r) {
    now = now + VirtualDuration::Millis(r % 97 == 0 ? 6000 : 1000);
    for (NodeId peer = 0; peer < kPeers; ++peer) {
      fd.Report(peer, now);
    }
  }
  EXPECT_EQ(g_news.load() - before, 0u) << "10k reports into full windows";
  EXPECT_EQ(fd.window_bytes(), bytes);
  EXPECT_EQ(fd.Phi(0, now), 0.0);
}

}  // namespace
}  // namespace scalecheck
