// EventFn is the SBO callable every simulator event rides on; these tests pin
// its contract: inline storage for hot-path-sized captures, heap fallback for
// oversized ones, move-only semantics, and immediate destruction on Reset.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <utility>

#include "src/common/event_fn.h"

namespace scalecheck {
namespace {

TEST(EventFn, EmptyIsFalseAndInline) {
  EventFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_TRUE(fn.is_inline());
}

TEST(EventFn, SmallCapturesStayInline) {
  int x = 0;
  EventFn fn([&x] { x = 42; });
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_TRUE(fn.is_inline());
  fn();
  EXPECT_EQ(x, 42);
}

TEST(EventFn, CaptureAtTheInlineLimitStaysInline) {
  struct Fat {
    char bytes[EventFn::kInlineBytes - sizeof(int*)];
  };
  int ran = 0;
  EventFn fn([p = &ran, fat = Fat{}] { ++*p; (void)fat; });
  EXPECT_TRUE(fn.is_inline());
  fn();
  EXPECT_EQ(ran, 1);
}

TEST(EventFn, OversizedCapturesGoToHeapAndStillRun) {
  struct Huge {
    char bytes[EventFn::kInlineBytes + 1];
  };
  int ran = 0;
  EventFn fn([p = &ran, huge = Huge{}] { ++*p; (void)huge; });
  EXPECT_FALSE(fn.is_inline());
  fn();
  EXPECT_EQ(ran, 1);
}

TEST(EventFn, MoveTransfersOwnershipAndEmptiesSource) {
  int x = 0;
  EventFn a([&x] { ++x; });
  EventFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(x, 1);
}

TEST(EventFn, MoveAssignDestroysPreviousTarget) {
  auto before = std::make_shared<int>(1);
  auto after = std::make_shared<int>(2);
  EventFn target([before] { (void)*before; });
  EXPECT_EQ(before.use_count(), 2);
  target = EventFn([after] { (void)*after; });
  EXPECT_EQ(before.use_count(), 1);
  EXPECT_EQ(after.use_count(), 2);
}

TEST(EventFn, ResetDestroysCaptureImmediately) {
  auto payload = std::make_shared<int>(7);
  EventFn fn([payload] { (void)*payload; });
  EXPECT_EQ(payload.use_count(), 2);
  fn.Reset();
  EXPECT_EQ(payload.use_count(), 1);
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(EventFn, HeapBoxedCaptureIsDestroyed) {
  struct Huge {
    std::shared_ptr<int> payload;
    char pad[EventFn::kInlineBytes];
    void operator()() {}
  };
  auto payload = std::make_shared<int>(7);
  {
    EventFn fn(Huge{payload, {}});
    EXPECT_FALSE(fn.is_inline());
    EXPECT_EQ(payload.use_count(), 2);
  }
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(EventFn, MoveOnlyCallablesAccepted) {
  auto owned = std::make_unique<int>(41);
  int got = 0;
  EventFn fn([owned = std::move(owned), &got] { got = *owned + 1; });
  EventFn moved = std::move(fn);
  moved();
  EXPECT_EQ(got, 42);
}

}  // namespace
}  // namespace scalecheck
