// Calendar-queue internals (DESIGN.md §6h): generation-checked handle
// cancellation (the cancelled-set accounting leak regression, stale-handle
// safety across slot reuse) and canonical ordering across the wheel levels,
// the far band and the incursion heap.
#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "net/event.hpp"
#include "net/time.hpp"

namespace asp::net {
namespace {

// Regression for the cancelled-id leak: the old implementation kept every
// cancel() of an already-run id in `cancelled_` forever, permanently skewing
// pending()/empty() (computed as queue size minus cancelled size). The
// tcp.cpp pattern — fire, then finish() cancels the stale rto_timer_ id —
// hit this on every connection teardown.
TEST(EventCalendar, CancelAfterFireKeepsAccountingExact) {
  EventQueue q;
  EventId rto = q.schedule_at(10, [] {});
  q.run();
  EXPECT_TRUE(q.empty());
  q.cancel(rto);  // already ran: must be a pure no-op
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  bool ran = false;
  q.schedule_at(20, [&] { ran = true; });
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.run(), 1u);
  EXPECT_TRUE(ran);
  EXPECT_TRUE(q.empty()) << "cancel of a fired id must not skew empty()";
}

// A stale handle must never hit the event that reused its slot: the
// generation half of the id changes when the slot is reclaimed.
TEST(EventCalendar, StaleHandleCannotCancelReusedSlot) {
  EventQueue q;
  EventId a = q.schedule_at(10, [] {});
  q.run();
  bool b_ran = false;
  EventId b = q.schedule_at(20, [&] { b_ran = true; });
  EXPECT_EQ(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b))
      << "test premise: b reuses a's slab slot";
  EXPECT_NE(a, b) << "generations must differ";
  q.cancel(a);  // stale: must not touch b
  q.run();
  EXPECT_TRUE(b_ran);
}

TEST(EventCalendar, DoubleCancelIsIdempotent) {
  EventQueue q;
  bool other = false;
  EventId a = q.schedule_at(10, [] {});
  q.schedule_at(20, [&] { other = true; });
  q.cancel(a);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run(), 1u);
  EXPECT_TRUE(other);
}

TEST(EventCalendar, HandlerCancellingOwnIdIsNoop) {
  EventQueue q;
  EventId self = 0;
  bool later = false;
  self = q.schedule_at(10, [&] { q.cancel(self); });
  q.schedule_at(20, [&] { later = true; });
  q.run();
  EXPECT_TRUE(later);
  EXPECT_TRUE(q.empty());
}

// cancel() destroys the callback's captures eagerly — a cancelled RTO timer
// must not pin its connection state until the dead entry drains.
TEST(EventCalendar, CancelReleasesCapturesEagerly) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  EventId id = q.schedule_at(1'000'000, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  q.cancel(id);
  EXPECT_EQ(token.use_count(), 1) << "capture must be destroyed at cancel";
}

// Drain order across very spread-out timestamps (every wheel level, the far
// band past the level-3 horizon, and the cascades between them) must be the
// canonical order: by time, then by schedule order among equal times.
TEST(EventCalendar, FarFutureOrderingIsCanonical) {
  constexpr int kEvents = 400;
  constexpr SimTime kLevel3Horizon = SimTime{1} << 42;  // 256 x 2^34 ns
  std::vector<SimTime> times;
  std::uint64_t rng = 0x243F6A8885A308D3ull;
  for (int i = 0; i < kEvents; ++i) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    // Spread from ns to ~28 simulated hours (1e14 ns), and every fourth
    // event reuses an earlier time so that equal timestamps must fall back
    // to schedule order.
    if (i % 4 == 3) {
      times.push_back(times[rng % times.size()]);
    } else {
      times.push_back(rng % 100'000'000'000'000ull);
    }
  }
  ASSERT_GT(*std::max_element(times.begin(), times.end()), kLevel3Horizon)
      << "test premise: some events start in the far band";

  std::vector<std::size_t> expected(times.size());
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::size_t a, std::size_t b) { return times[a] < times[b]; });

  EventQueue q;
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < times.size(); ++i) {
    q.schedule_at(times[i], [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.run(), times.size());
  EXPECT_EQ(order, expected);
}

// Handlers scheduling into the bucket being drained (and behind a cursor
// that run_until's peek moved forward) must interleave canonically.
TEST(EventCalendar, IncursionSchedulingStaysOrdered) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1'000'000, [&] {
    order.push_back(0);
    q.schedule_in(0, [&] { order.push_back(1); });  // same instant, runs after
    q.schedule_in(3, [&] { order.push_back(2); });  // same bucket
  });
  // Peek moves the drain cursor to the 1 ms bucket; this lands behind it.
  EXPECT_EQ(q.next_event_time(), 1'000'000u);
  q.run_until(500'000);
  q.schedule_at(600'000, [&] { order.push_back(-1); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));
}

}  // namespace
}  // namespace asp::net
