// Cross-shard remote-free protocol (DESIGN.md §6e): blocks freed by a
// non-owning shard must ride the lock-free remote channel home, be reclaimed
// at drains, and never corrupt a freelist — under randomized producer/
// consumer interleavings, with poison-on-free on, and under TSAN (the
// MemShard* suite is in the TSAN CI filter precisely for the channel's
// release-push/acquire-drain pairing).
#include <gtest/gtest.h>

#include <barrier>
#include <cstdint>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "mem/pool.hpp"
#include "mem/shard.hpp"
#include "planp/value.hpp"

namespace {

using namespace asp;

// Runs `fn` on a fresh thread bound to its own shard and joins it. The test
// body thread keeps its own binding (typically shard 0), so `fn` is a
// genuine foreign shard.
template <typename Fn>
void on_other_shard(Fn fn) {
  std::thread([&] {
    mem::bind_shard(-1);
    fn();
  }).join();
}

TEST(MemShard, CrossShardBufferFreeRidesRemoteChannelHome) {
  mem::reset_for_test();
  mem::ShardPools& mine = mem::shard();

  mem::BufferPool::Handle h = mine.buffers().acquire(256);
  h->assign(100, 0x5A);
  const std::uint64_t freed_before = mine.buffers().stats().remote_freed.load();

  on_other_shard([&] { h.reset(); });  // foreign free -> remote push

  EXPECT_EQ(mine.buffers().stats().remote_freed.load(), freed_before + 1);
  EXPECT_EQ(mine.buffers().stats().remote_drained.load(), 0u);

  mem::drain_remote_frees();
  EXPECT_EQ(mine.buffers().stats().remote_drained.load(), 1u);

  // The reclaimed node serves the owner's next acquire from the freelist.
  const std::uint64_t hits_before = mine.buffers().stats().hits.load();
  mem::BufferPool::Handle h2 = mine.buffers().acquire(256);
  EXPECT_EQ(mine.buffers().stats().hits.load(), hits_before + 1);
}

TEST(MemShard, UnboundThreadFreeGoesRemoteNotLocal) {
  mem::reset_for_test();
  mem::ShardPools& mine = mem::shard();
  mem::BufferPool::Handle h = mine.buffers().acquire(64);

  // A thread that never binds a shard has a null owner token, which never
  // matches a pool's token — its frees must go remote, not graft the node
  // onto a freelist it doesn't own.
  std::thread([&] { h.reset(); }).join();

  EXPECT_GE(mine.buffers().stats().remote_freed.load(), 1u);
}

TEST(MemShard, ShardIdsLineUpWithBindAndRecycleWarmInstances) {
  mem::reset_for_test();
  int first_id = -1;
  int second_id = -1;
  std::thread([&] {
    mem::bind_shard(-1);
    first_id = mem::shard().id();
    mem::shard().buffers().acquire(64);  // warm one node
  }).join();
  std::thread([&] {
    mem::bind_shard(first_id);  // id was released at thread exit -> reusable
    second_id = mem::shard().id();
  }).join();
  EXPECT_GE(first_id, 0);
  EXPECT_EQ(second_id, first_id);
}

// Binds every pool set in [0, max_id], draining its remote channels, then
// restores the caller's binding. Reclaims frees stranded on released
// instances (pushed after their owner's exit drain) — including by earlier
// tests in this binary, which is why the stress below sweeps BEFORE taking
// its baseline.
void sweep_drain(int max_id) {
  const int my_id = mem::shard().id();
  for (int id = 0; id <= max_id; ++id) {
    mem::bind_shard(id);
    mem::drain_remote_frees();
  }
  mem::bind_shard(my_id);
}

// The stress: P producer shards each allocate buffers and tuples and scatter
// them to randomly chosen consumer inboxes; C consumer shards pop at
// random and drop them (foreign frees), with random drain points on both
// sides. Run with poison ON so any premature recycle of a live block reads
// back a loud sentinel, and under TSAN for the channel's memory ordering.
TEST(MemShard, RandomizedCrossShardStressReclaimsEverything) {
  mem::reset_for_test();
  const bool poison_before = mem::poison_enabled();
  mem::set_poison(true);

  constexpr int kProducers = 3;
  constexpr int kConsumers = 2;
  constexpr int kItemsPerProducer = 2'000;

  struct Item {
    mem::BufferPool::Handle buf;
    planp::Value tuple;
    std::uint8_t fill = 0;
  };
  struct Inbox {
    std::mutex mu;
    std::vector<Item> v;
    bool closed = false;
  };
  Inbox inboxes[kConsumers];

  // The stress threads take the lowest free ids, all <= my_id + threads, so
  // this sweep range covers every instance they can land on (plus whatever
  // earlier tests created and may have left strands on).
  const int kSweepMax = mem::shard().id() + kProducers + kConsumers + 16;
  sweep_drain(kSweepMax);
  const mem::PoolTotals t_before = mem::total_pool_stats();
  std::barrier producers_done(kProducers + 1);

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      mem::bind_shard(-1);
      std::mt19937 rng(1000u + static_cast<unsigned>(p));
      mem::ShardPools& sp = mem::shard();
      for (int i = 0; i < kItemsPerProducer; ++i) {
        Item it;
        it.fill = static_cast<std::uint8_t>(rng() & 0x7F);
        it.buf = sp.buffers().acquire(64 + (rng() % 512));
        it.buf->assign(48, it.fill);
        it.tuple = planp::Value::of_tuple({planp::Value::of_int(it.fill),
                                           planp::Value::of_int(i)});
        Inbox& box = inboxes[rng() % kConsumers];
        {
          std::lock_guard<std::mutex> lk(box.mu);
          box.v.push_back(std::move(it));
        }
        if (rng() % 32 == 0) mem::drain_remote_frees();
      }
      mem::drain_remote_frees();
      producers_done.arrive_and_wait();
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      mem::bind_shard(-1);
      std::mt19937 rng(2000u + static_cast<unsigned>(c));
      Inbox& box = inboxes[c];
      std::vector<Item> grabbed;
      for (;;) {
        bool closed;
        {
          std::lock_guard<std::mutex> lk(box.mu);
          grabbed.swap(box.v);
          closed = box.closed;
        }
        for (Item& it : grabbed) {
          // The handed-off storage must still hold the producer's bytes —
          // poison mode would have scribbled 0xA5 over any premature
          // recycle.
          ASSERT_EQ(it.buf->size(), 48u);
          ASSERT_EQ((*it.buf)[0], it.fill);
          ASSERT_EQ(it.tuple.as_tuple()[0].as_int(), it.fill);
          // Dropping the Item frees buf + tuple from this foreign shard.
        }
        grabbed.clear();
        if (rng() % 8 == 0) mem::drain_remote_frees();
        if (closed) break;
        std::this_thread::yield();
      }
      mem::drain_remote_frees();
    });
  }

  producers_done.arrive_and_wait();
  for (Inbox& box : inboxes) {
    std::lock_guard<std::mutex> lk(box.mu);
    box.closed = true;
  }
  for (std::thread& t : threads) t.join();

  // Exit drains can miss frees pushed after an owner's last drain; sweep
  // the same id range to reclaim the stragglers, then check the books.
  sweep_drain(kSweepMax);
  mem::drain_remote_frees();

  const mem::PoolTotals t_after = mem::total_pool_stats();
  EXPECT_GT(t_after.remote_freed, t_before.remote_freed);  // ring was exercised
  EXPECT_EQ(t_after.remote_freed - t_before.remote_freed,
            t_after.remote_drained - t_before.remote_drained);
  EXPECT_EQ(t_after.live, t_before.live);

  mem::set_poison(poison_before);
}

}  // namespace
