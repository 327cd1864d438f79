#include "net/event.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace asp::net {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, EqualTimesRunFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule_at(100, [&, i] { order.push_back(i); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleInUsesCurrentTime) {
  EventQueue q;
  SimTime seen = 0;
  q.schedule_at(50, [&] {
    q.schedule_in(25, [&] { seen = q.now(); });
  });
  q.run();
  EXPECT_EQ(seen, 75u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventQueue q;
  std::vector<SimTime> fired;
  q.schedule_at(10, [&] { fired.push_back(10); });
  q.schedule_at(20, [&] { fired.push_back(20); });
  q.schedule_at(30, [&] { fired.push_back(30); });
  q.run_until(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(q.now(), 20u);
  q.run_until(100);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) q.schedule_in(5, tick);
  };
  q.schedule_at(0, tick);
  q.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(q.now(), 45u);
}

TEST(EventQueue, RunLimitStopsEarly) {
  EventQueue q;
  int count = 0;
  for (int i = 0; i < 10; ++i) q.schedule_at(i, [&] { ++count; });
  EXPECT_EQ(q.run(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(q.pending(), 7u);
}

TEST(SimTimeHelpers, Conversions) {
  EXPECT_EQ(seconds(1.5), 1'500'000'000u);
  EXPECT_EQ(millis(2), 2'000'000u);
  EXPECT_EQ(micros(3), 3'000u);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(42.0)), 42.0);
}

TEST(SimTimeHelpers, TxTimeMatchesLinkRate) {
  // 1250 bytes at 10 Mb/s = 1 ms.
  EXPECT_EQ(tx_time(1250, 10e6), kNsPerMs);
  // 1 byte at 8 bits/s = 1 s.
  EXPECT_EQ(tx_time(1, 8.0), kNsPerSec);
}

// run_until(t) runs every event at or before t and none after it, even when
// an earlier event leaves the head past t. The parallel executor's window
// math relies on the bound being exact.
TEST(EventQueue, RunUntilNeverRunsPastTheBound) {
  EventQueue q;
  int fired_early = 0;
  int fired_late = 0;
  q.schedule_at(10, [&] { ++fired_early; });
  q.schedule_at(100, [&] { ++fired_late; });
  EXPECT_EQ(q.run_until(50), 1u);
  EXPECT_EQ(fired_early, 1);
  EXPECT_EQ(fired_late, 0) << "event at t=100 must not run in run_until(50)";
  EXPECT_EQ(q.now(), 50u);
  EXPECT_EQ(q.next_event_time(), 100u);
  q.run_until(100);
  EXPECT_EQ(fired_late, 1);
  EXPECT_EQ(q.next_event_time(), EventQueue::kNever);
}

// The canonical delivery tie-break: at one timestamp, events run by schedule
// clock (the sender's clock for a frame), then rank (the sender's topology
// index), then schedule order — whatever order they were scheduled in. A
// schedule_at event carries rank UINT32_MAX, so it runs after every ranked
// event with the same schedule clock.
TEST(EventQueue, RankedEventsOrderBySenderClockThenRank) {
  EventQueue q;
  q.run_until(50);
  std::vector<std::string> order;
  auto note = [&order](const char* name) {
    return [&order, name] { order.push_back(name); };
  };
  q.schedule_ranked(101, /*sched=*/0, /*rank=*/0, note("later"));
  q.schedule_ranked(100, 50, 1, note("a"));
  q.schedule_at(100, note("at"));  // sched = now() = 50
  q.schedule_ranked(100, 20, 7, note("b1"));
  q.schedule_ranked(100, 50, 0, note("c"));
  q.schedule_ranked(100, 20, 7, note("b2"));
  q.schedule_ranked(100, 50, 3, note("f"));
  q.schedule_ranked(100, 30, 2, note("d"));
  EXPECT_EQ(q.run(), 8u);
  EXPECT_EQ(order, (std::vector<std::string>{"b1", "b2", "d", "c", "a", "f", "at",
                                             "later"}));
}

}  // namespace
}  // namespace asp::net
