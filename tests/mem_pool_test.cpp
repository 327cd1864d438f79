// The pooled-buffer & arena memory subsystem: recycling really reuses
// storage, COW aliasing keeps shared bytes intact, poison-on-free scribbles
// recycled memory, and SmallFn keeps its targets in its inline buffer.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/pool.hpp"
#include "mem/shard.hpp"
#include "mem/smallfn.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "planp/value.hpp"

namespace asp {
namespace {

using mem::PoolStats;
using planp::Value;

/// Poison mode is a process-global toggle shared with every other test in
/// this binary; always restore it.
struct PoisonGuard {
  bool prev;
  explicit PoisonGuard(bool on) : prev(mem::poison_enabled()) { mem::set_poison(on); }
  ~PoisonGuard() { mem::set_poison(prev); }
};

// --- reset hook ---------------------------------------------------------------

TEST(PoolReset, ResetForTestZeroesCountersAndPurgesFreelists) {
  mem::reset_for_test();
  const PoolStats& st = mem::buffer_pool().stats();
  { auto warm = mem::buffer_pool().acquire(100); }
  EXPECT_GT(st.misses + st.hits, 0u);

  mem::reset_for_test();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 0u);
  EXPECT_EQ(st.recycled, 0u);
  EXPECT_EQ(st.spills, 0u);
  // Freelists purged: the next acquire deterministically misses, regardless
  // of what earlier tests in this binary recycled.
  auto buf = mem::buffer_pool().acquire(100);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 0u);
}

// --- buffer pool --------------------------------------------------------------

TEST(BufferPool, RecyclingReusesStorageAndCapacity) {
  mem::reset_for_test();  // deterministic stats baseline (DESIGN.md §6e)
  const PoolStats& st = mem::buffer_pool().stats();

  auto first = mem::buffer_pool().acquire(1000);
  first->assign(1000, 0x11);
  const std::uint8_t* storage = first->data();
  const std::size_t cap = first->capacity();
  first.reset();  // recycles: capacity-classed freelist, not the allocator

  std::uint64_t hits_before = st.hits;
  auto second = mem::buffer_pool().acquire(1000);
  EXPECT_EQ(st.hits, hits_before + 1) << "same-class acquire missed the freelist";
  EXPECT_EQ(second->data(), storage) << "freelist did not hand back the node";
  EXPECT_GE(second->capacity(), cap);
  EXPECT_TRUE(second->empty()) << "recycled buffer not cleared";
}

TEST(BufferPool, AdoptTakesStorageWithoutCopying) {
  std::vector<std::uint8_t> bytes(256, 0x2A);
  const std::uint8_t* storage = bytes.data();
  net::Buffer b = net::make_buffer(std::move(bytes));
  EXPECT_EQ(b->data(), storage) << "make_buffer copied instead of adopting";
  EXPECT_EQ(b->size(), 256u);
}

TEST(BufferPool, AdoptCopiesTinyVectorsIntoPooledStorage) {
  // Adopting a vector below the base capacity as-is would free a recycled
  // node's pooled storage, and recycling would reserve it again: one malloc
  // and one free per buffer that the hit count does not show.
  mem::reset_for_test();
  net::Buffer first = net::make_buffer({1, 2, 3});
  EXPECT_GE(first->capacity(), 64u) << "a tiny vector was adopted as-is";
  EXPECT_EQ(*first, (std::vector<std::uint8_t>{1, 2, 3}));
  const std::uint8_t* storage = first->data();
  first.reset();

  net::Buffer second = net::make_buffer({4, 5});
  EXPECT_EQ(second->data(), storage) << "re-make did not reuse the pooled storage";
  EXPECT_EQ(*second, (std::vector<std::uint8_t>{4, 5}));
}

TEST(BufferPool, CowMutateClonesOnlyWhenShared) {
  net::Payload p(std::vector<std::uint8_t>{1, 2, 3, 4});
  net::Buffer alias = p.buffer();  // a blob Value or aliased packet
  EXPECT_EQ(alias.use_count(), 2);

  p.mutate()[0] = 9;  // shared -> must clone into a fresh pooled buffer
  EXPECT_EQ((*alias)[0], 1) << "COW clone wrote through the alias";
  EXPECT_EQ(p.bytes()[0], 9);
  EXPECT_EQ(alias.use_count(), 1) << "payload still aliases the old buffer";

  const std::uint8_t* unshared = p.bytes().data();
  p.mutate()[1] = 8;  // sole owner -> must mutate in place
  EXPECT_EQ(p.bytes().data(), unshared) << "unshared mutate cloned needlessly";
}

TEST(BufferPool, AliasKeepsRecycledBufferAlive) {
  // The recycler must only run when the *last* reference drops: a blob Value
  // aliasing a payload keeps the bytes valid after the packet dies.
  net::Buffer alias;
  {
    net::Payload p(std::vector<std::uint8_t>{7, 7, 7});
    alias = p.buffer();
  }
  ASSERT_EQ(alias.use_count(), 1);
  EXPECT_EQ((*alias)[2], 7);
}

TEST(BufferPool, PoisonOnFreeScribblesRecycledBytes) {
  PoisonGuard poison(true);
  auto buf = mem::buffer_pool().acquire(128);
  buf->assign(128, 0x11);
  const std::uint8_t* storage = buf->data();
  buf.reset();
  // The node sits on the freelist; its storage is still mapped, and poison
  // mode must have overwritten the stale contents.
  EXPECT_EQ(storage[0], mem::kPoisonByte);
  EXPECT_EQ(storage[127], mem::kPoisonByte);
}

TEST(BufferPool, NodeGoesHomeOnlyWhenControlBlockIsReleased) {
  // The handle's control block lives in its node: a weak_ptr keeps the block,
  // and so the node, off the freelist after the last owner has dropped.
  mem::reset_for_test();
  const PoolStats& st = mem::buffer_pool().stats();
  auto buf = mem::buffer_pool().acquire(64);
  std::weak_ptr<mem::BufferPool::Bytes> weak = buf;
  const std::uint64_t recycled_before = st.recycled;
  buf.reset();
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(st.recycled, recycled_before) << "node recycled under a live weak_ptr";
  weak.reset();
  EXPECT_EQ(st.recycled, recycled_before + 1) << "released node did not go home";
}

// --- tuple pool / Value reps --------------------------------------------------

TEST(TuplePool, TupleStorageIsRecycled) {
  // The engines' steady-state path: make_tuple_storage + push_back keeps the
  // element capacity across recycles (of_tuple instead *adopts* the caller's
  // vector, so its storage is whatever the caller built). LIFO freelist and
  // a single-threaded test body make the reuse deterministic.
  const Value* data_before;
  {
    planp::TupleRep t = Value::make_tuple_storage(3);
    for (int i = 1; i <= 3; ++i) t->push_back(Value::of_int(i));
    Value v = Value::of_tuple_rep(std::move(t));
    data_before = v.as_tuple().data();
  }
  planp::TupleRep t2 = Value::make_tuple_storage(3);
  EXPECT_EQ(t2->data(), data_before) << "tuple storage not recycled";
  EXPECT_GE(t2->capacity(), 3u) << "recycled capacity lost";
  EXPECT_TRUE(t2->empty());
}

TEST(TuplePool, RecycledTupleReleasesElementRefs) {
  // Clearing on recycle must drop element references (a held blob would
  // otherwise pin its buffer forever from the freelist).
  net::Buffer alias;
  {
    net::Payload p(std::vector<std::uint8_t>{9, 9});
    alias = p.buffer();
    Value t = Value::of_tuple({Value::of_blob_shared(alias), Value::of_int(1)});
    EXPECT_EQ(alias.use_count(), 3);  // payload + tuple element + alias
  }
  EXPECT_EQ(alias.use_count(), 1) << "recycled tuple still holds the blob";
}

TEST(TuplePool, NodeGoesHomeOnlyWhenControlBlockIsReleased) {
  // tuple_pool() is file-local to planp/value.cpp, so read the tuple pool's
  // recycle count through the process-wide totals; nothing else releases a
  // pooled object on this thread in between.
  mem::reset_for_test();
  planp::TupleRep t = Value::make_tuple_storage(2);
  std::weak_ptr<std::vector<Value>> weak = t;
  const std::uint64_t recycled_before = mem::total_pool_stats().recycled;
  t.reset();
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(mem::total_pool_stats().recycled, recycled_before)
      << "node recycled under a live weak_ptr";
  weak.reset();
  EXPECT_EQ(mem::total_pool_stats().recycled, recycled_before + 1)
      << "released node did not go home";
}

// --- box pool -----------------------------------------------------------------

TEST(BoxPool, BoxedPacketRecyclesAndReleasesPayload) {
  mem::reset_for_test();  // deterministic stats baseline
  const PoolStats& st = net::packet_boxes().stats();

  net::Buffer alias;
  std::uint64_t live_before = st.live;
  {
    net::Packet p = net::Packet::make_udp(net::ip("10.0.0.1"), net::ip("10.0.0.2"),
                                          1, 2, std::vector<std::uint8_t>(64, 0xEE));
    alias = p.payload.buffer();
    auto box = net::packet_boxes().box(std::move(p));
    EXPECT_EQ(st.live, live_before + 1);
    EXPECT_EQ(box->payload.size(), 64u);
  }
  EXPECT_EQ(st.live, live_before) << "box handle did not recycle";
  // Recycling resets the node to Packet{}, so the payload buffer was let go.
  EXPECT_EQ(alias.use_count(), 1) << "recycled box still pins the payload";

  std::uint64_t hits_before = st.hits;
  auto again = net::packet_boxes().box(net::Packet{});
  EXPECT_EQ(st.hits, hits_before + 1) << "second box missed the freelist";
}

// --- frame arena --------------------------------------------------------------

TEST(FrameArena, FrameAddressesSurviveGrowth) {
  mem::FrameArena<int> arena;
  auto& f0 = arena.at_depth(0);
  f0.locals.assign({1, 2, 3});
  int* data = f0.locals.data();
  arena.at_depth(7);  // forces growth past depth 0
  EXPECT_EQ(arena.depth(), 8u);
  EXPECT_EQ(arena.at_depth(0).locals.data(), data)
      << "growing the arena moved an outstanding frame";
}

TEST(FrameArena, ScribbleOverwritesEverySlot) {
  mem::FrameArena<int> arena;
  auto& f = arena.at_depth(0);
  f.locals.assign({1, 2});
  f.args.assign({4, 5, 6});
  arena.scribble(0, 99);
  for (int v : f.locals) EXPECT_EQ(v, 99);
  for (int v : f.args) EXPECT_EQ(v, 99);
  arena.scribble(12, 99);  // beyond depth: must be a no-op, not a crash
  arena.clear(0);
  EXPECT_TRUE(f.locals.empty());
  EXPECT_TRUE(f.args.empty());
  arena.clear(12);  // likewise
}

// --- SmallFn ------------------------------------------------------------------

TEST(SmallFn, SmallCapturesLiveInline) {
  // A capture that fills the whole 64-byte buffer is stored in place and
  // runs; a larger one does not compile (SmallFn's static_assert).
  struct Budget {
    int* out;
    char pad[64 - sizeof(int*)];
  } budget{};
  int hit = 0;
  budget.out = &hit;
  budget.pad[0] = 7;
  mem::SmallFn<64> fn([budget] { *budget.out += budget.pad[0]; });
  fn();
  EXPECT_EQ(hit, 7);
}

TEST(SmallFn, MoveTransfersTheTarget) {
  auto counter = std::make_shared<int>(0);
  mem::SmallFn<64> a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  mem::SmallFn<64> b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_EQ(counter.use_count(), 2) << "move copied the capture";
  b();
  EXPECT_EQ(*counter, 1);
  b = mem::SmallFn<64>([counter] { *counter += 10; });
  b();
  EXPECT_EQ(*counter, 11);
}

}  // namespace
}  // namespace asp
