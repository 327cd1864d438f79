// Calendar-queue internals (DESIGN.md §6h): canonical ordering across the
// wheel levels, the far band and the incursion heap, and key storage that
// follows the pending events.
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

// Keys live in fixed-size blocks that a wheel cell gives back to the
// queue's free list when it seals or cascades, so key storage follows the
// pending events, not the load every cell has ever held. Each timer re-arms
// 2^30 ns (about 1.07 s) ahead, so every key starts in a level-2 cell, and
// each run spans more than the level-2 ring (256 x 2^26 ns, about 17.2 s),
// so the keys sweep every level-2 cell. The period is a whole number of
// level-2 buckets, so the wheel's per-cell load repeats every period and a
// second sweep needs no block the first did not.
TEST(EventCalendar, KeyStorageFollowsPendingEvents) {
  constexpr std::size_t kTimers = 16'384;
  constexpr SimTime kPeriod = SimTime{1} << 30;
  constexpr SimTime kSweep = (SimTime{1} << 34) + kPeriod;
  constexpr std::size_t kSlack =  // one partly filled block per wheel cell
      EventQueue::kBlockKeys * EventQueue::kLevels * EventQueue::kBuckets;

  struct Timers {
    EventQueue q;
    std::size_t peak = 0;
    void fire() {
      q.schedule_in(kPeriod, [this] { fire(); });
      if (q.pending() > peak) peak = q.pending();
    }
  } t;
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < kTimers; ++i) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    t.q.schedule_at(kPeriod + rng % kPeriod, [&t] { t.fire(); });
  }

  t.q.run_until(kSweep);
  ASSERT_EQ(t.peak, kTimers);
  const std::size_t first = t.q.key_capacity();
  EXPECT_LE(first, 2 * t.peak + kSlack);

  t.q.run_until(2 * kSweep);
  EXPECT_EQ(t.q.key_capacity(), first) << "the second sweep grew key storage";
}

}  // namespace
}  // namespace asp::net
