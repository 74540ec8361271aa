// PayloadPool: recycled payloads come back cleared with their capacity, the
// free list is bounded, a payload may outlive its pool, and a warm
// Acquire/release cycle allocates nothing. This binary replaces the global
// operator new with a counting one (each test file links into its own
// binary, so the replacement stays here).

#include "src/sim/payload_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

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

// A payload that counts live instances, so a test can tell a parked payload
// from a deleted one.
struct Counted {
  static inline int live = 0;
  std::vector<int> data;

  Counted() { ++live; }
  ~Counted() { --live; }
  void Clear() { data.clear(); }
};

using Pool = PayloadPool<Counted>;

class PayloadPoolTest : public ::testing::Test {
 protected:
  void SetUp() override { Counted::live = 0; }
  void TearDown() override { EXPECT_EQ(Counted::live, 0) << "a payload leaked"; }
};

TEST_F(PayloadPoolTest, RecycledPayloadComesBackClearedWithItsCapacity) {
  Pool pool;
  const Counted* first = nullptr;
  {
    std::shared_ptr<Counted> p = pool.Acquire();
    p->data.assign(1000, 7);
    first = p.get();
  }
  std::shared_ptr<Counted> again = pool.Acquire();
  EXPECT_EQ(again.get(), first);
  EXPECT_TRUE(again->data.empty());
  EXPECT_GE(again->data.capacity(), 1000u);
}

TEST_F(PayloadPoolTest, ParksAtMostMaxParkedAndDeletesTheRest) {
  constexpr size_t kExtra = 5;
  Pool pool;
  {
    std::vector<std::shared_ptr<Counted>> held;
    for (size_t i = 0; i < Pool::kMaxParked + kExtra; ++i) {
      held.push_back(pool.Acquire());
    }
    EXPECT_EQ(Counted::live, static_cast<int>(Pool::kMaxParked + kExtra));
  }
  // The first kMaxParked returns are parked; the rest were deleted.
  EXPECT_EQ(Counted::live, static_cast<int>(Pool::kMaxParked));

  // Draining the free list reuses every parked payload before allocating.
  std::vector<std::shared_ptr<Counted>> again;
  for (size_t i = 0; i < Pool::kMaxParked + 1; ++i) {
    again.push_back(pool.Acquire());
  }
  EXPECT_EQ(pool.reuses(), Pool::kMaxParked);
  EXPECT_EQ(pool.allocs(), Pool::kMaxParked + kExtra + 1);
}

TEST_F(PayloadPoolTest, PayloadReleasedAfterItsPoolIsDestroyedIsFreed) {
  std::shared_ptr<Counted> in_flight;
  {
    Pool pool;
    std::shared_ptr<Counted> parked = pool.Acquire();
    in_flight = pool.Acquire();
    in_flight->data.assign(64, 1);
    parked.reset();
    EXPECT_EQ(Counted::live, 2);
  }
  // The in-flight payload's control block keeps the pool's free lists alive.
  EXPECT_EQ(in_flight->data.size(), 64u);
  // Its last reference parks it on that orphaned list, and the control
  // block's own reference, the list's last, then frees both payloads and
  // the parked control block.
  in_flight.reset();
  EXPECT_EQ(Counted::live, 0);
}

TEST_F(PayloadPoolTest, CountsReusesAndAllocs) {
  Pool pool;
  EXPECT_EQ(pool.reuses(), 0u);
  EXPECT_EQ(pool.allocs(), 0u);
  std::shared_ptr<Counted> a = pool.Acquire();
  std::shared_ptr<Counted> b = pool.Acquire();
  EXPECT_EQ(pool.allocs(), 2u);
  a.reset();
  for (int i = 0; i < 3; ++i) {
    pool.Acquire();  // dropped at once, so each reuses the one parked payload
  }
  EXPECT_EQ(pool.reuses(), 3u);
  EXPECT_EQ(pool.allocs(), 2u);
  // A copy of a handed-out pointer is not a second payload.
  std::shared_ptr<Counted> c = b;
  b.reset();
  c.reset();
  pool.Acquire();
  pool.Acquire();
  EXPECT_EQ(pool.reuses(), 5u);
  EXPECT_EQ(pool.allocs(), 2u);
}

TEST_F(PayloadPoolTest, WarmAcquireReleaseCycleAllocatesNothing) {
  Pool pool;
  {
    // Warm: two payloads with capacity, and two control blocks, parked.
    std::shared_ptr<Counted> a = pool.Acquire();
    std::shared_ptr<Counted> b = pool.Acquire();
    a->data.reserve(16);
    b->data.reserve(16);
  }
  uint64_t before = g_news.load();
  for (int i = 0; i < 10'000; ++i) {
    std::shared_ptr<Counted> a = pool.Acquire();
    std::shared_ptr<Counted> b = pool.Acquire();
    std::shared_ptr<Counted> copy = a;  // a copy shares the pooled block
    a->data.push_back(i);
    b->data.push_back(i);
  }
  EXPECT_EQ(g_news.load() - before, 0u) << "10k warm Acquire/release cycles";
  EXPECT_EQ(pool.allocs(), 2u);
  EXPECT_EQ(pool.reuses(), 20'000u);
}

}  // namespace
}  // namespace scalecheck
