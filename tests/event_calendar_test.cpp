// Calendar-queue internals (DESIGN.md §6h): canonical ordering across the
// wheel levels, the far band and the incursion heap.
#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "net/event.hpp"
#include "net/time.hpp"

namespace asp::net {
namespace {

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
