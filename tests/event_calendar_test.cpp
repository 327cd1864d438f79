// Calendar-queue internals (DESIGN.md §6h): generation-checked handle
// cancellation (the cancelled-set accounting leak regression, stale-handle
// safety across slot reuse), far-band / cascade ordering, and the bucket
// width determinism sweep — any level-0 bucket width must produce
// byte-identical simulations at any shard count, exactly like the batch
// limit sweep in batch_equivalence_test.cpp.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/event.hpp"
#include "net/time.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scn.hpp"

namespace asp::net {
namespace {

struct ScopedBucketWidth {
  unsigned saved;
  explicit ScopedBucketWidth(unsigned w)
      : saved(EventQueue::default_bucket_width_log2()) {
    EventQueue::set_default_bucket_width_log2(w);
  }
  ~ScopedBucketWidth() { EventQueue::set_default_bucket_width_log2(saved); }
};

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

// Drain order across very spread-out timestamps (wheel levels + far band +
// cascades) must match the canonical order exactly, for any bucket width.
TEST(EventCalendar, FarFutureOrderingMatchesAcrossWidths) {
  std::vector<std::vector<int>> orders;
  for (unsigned w : {4u, 10u, 14u, 20u}) {
    ScopedBucketWidth width(w);
    EventQueue q;
    std::vector<int> order;
    std::uint64_t rng = 0x243F6A8885A308D3ull;
    std::vector<SimTime> times;
    for (int i = 0; i < 400; ++i) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      // Spread from ns to ~3 simulated hours: far beyond every wheel horizon
      // at width 4, and colliding times included (mod keeps duplicates).
      times.push_back(rng % 10'000'000'000'000ull);
    }
    for (int i = 0; i < 400; ++i) {
      q.schedule_at(times[static_cast<std::size_t>(i)],
                    [&order, i] { order.push_back(i); });
    }
    EXPECT_EQ(q.run(), 400u);
    orders.push_back(order);
  }
  for (std::size_t i = 1; i < orders.size(); ++i) {
    EXPECT_EQ(orders[0], orders[i]) << "width sweep diverged at index " << i;
  }
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

namespace asp::scenario {
namespace {

using asp::net::EventQueue;

struct ScopedBucketWidth {
  unsigned saved;
  explicit ScopedBucketWidth(unsigned w)
      : saved(EventQueue::default_bucket_width_log2()) {
    EventQueue::set_default_bucket_width_log2(w);
  }
  ~ScopedBucketWidth() { EventQueue::set_default_bucket_width_log2(saved); }
};

// The calendar analogue of batch_equivalence_test.cpp's batch-limit sweep:
// bucket width is a pure performance knob, so every width × shard-count
// combination must produce byte-identical metrics JSON on the checked-in
// 1k-node fat-tree.
TEST(EventCalendarDeterminism, WidthByShardSweepOn1kFatTree) {
  constexpr unsigned kWidths[] = {4, 10, 14};
  constexpr int kShardCounts[] = {1, 4};

  ScenarioConfig cfg;
  std::string err;
  ASSERT_TRUE(load_scn_file(std::string(ASP_SCENARIO_DIR) + "/fat_tree_1k.scn",
                            cfg, err))
      << err;
  cfg.run.duration = net::millis(20);  // keep tier-1 fast; ~100 requests

  std::string reference;
  for (unsigned w : kWidths) {
    for (int shards : kShardCounts) {
      ScopedBucketWidth width(w);
      Scenario sc(cfg);
      ScenarioMetrics m = sc.run(shards);
      const std::string json = m.to_json();
      if (reference.empty()) {
        EXPECT_GT(m.delivered_packets, 0u);
        reference = json;
      } else {
        EXPECT_EQ(reference, json)
            << "diverged at width_log2=" << w << " shards=" << shards;
      }
    }
  }
}

}  // namespace
}  // namespace asp::scenario
