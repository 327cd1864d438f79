// The in-network caching proxy (ROADMAP item 2): CacheStore semantics, the
// cache ASP's verification verdicts, planp-vs-native byte equivalence, origin
// offload, chaos convergence, and sharded determinism of the cache counters.
#include "apps/cache/experiment.hpp"

#include <gtest/gtest.h>

#include <map>

#include "apps/asp_files.hpp"
#include "net/exec.hpp"
#include "net/network.hpp"
#include "planp/analysis.hpp"
#include "planp/cache.hpp"
#include "planp/parser.hpp"
#include "planp/typecheck.hpp"
#include "runtime/engine.hpp"

namespace asp::apps {
namespace {

using asp::net::ip;
using asp::planp::CacheStore;

// --- CacheStore units --------------------------------------------------------

TEST(CacheStore, HitMissFillCounters) {
  CacheStore c;
  c.configure(8, 0);
  EXPECT_EQ(c.lookup(1, 0), nullptr);
  c.store(1, asp::net::make_buffer({1, 2, 3}), 0);
  const asp::net::Buffer* b = c.lookup(1, 5);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ((*b)->size(), 3u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().fills, 1u);
  EXPECT_EQ(c.size(), 1u);
}

TEST(CacheStore, TtlExpiryCountsExpiredNotMiss) {
  CacheStore c;
  c.configure(8, 100);
  c.store(7, asp::net::make_buffer({9}), 1000);
  EXPECT_NE(c.lookup(7, 1100), nullptr);  // exactly at the deadline: fresh
  EXPECT_EQ(c.lookup(7, 1101), nullptr);  // one past: expired and dropped
  EXPECT_EQ(c.stats().expired, 1u);
  EXPECT_EQ(c.stats().misses, 0u);
  EXPECT_EQ(c.size(), 0u);
}

TEST(CacheStore, LruEvictsColdestAndPromotionProtects) {
  CacheStore c;
  c.configure(2, 0);
  c.store(1, asp::net::make_buffer({1}), 0);
  c.store(2, asp::net::make_buffer({2}), 0);
  EXPECT_NE(c.lookup(1, 1), nullptr);  // promote 1; 2 is now LRU
  c.store(3, asp::net::make_buffer({3}), 2);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_NE(c.lookup(1, 3), nullptr);
  EXPECT_EQ(c.lookup(2, 3), nullptr) << "coldest entry must be the one evicted";
  EXPECT_NE(c.lookup(3, 3), nullptr);
}

TEST(CacheStore, RefillReplacesBodyAndRefreshesTtl) {
  CacheStore c;
  c.configure(4, 100);
  c.store(5, asp::net::make_buffer({1}), 0);
  c.store(5, asp::net::make_buffer({2, 2}), 80);  // refresh at t=80
  const asp::net::Buffer* b = c.lookup(5, 150);   // stale under the old fill
  ASSERT_NE(b, nullptr);
  EXPECT_EQ((*b)->size(), 2u);
  EXPECT_EQ(c.size(), 1u);
}

TEST(CacheStore, ReconfigureClearsResidencyKeepsCounters) {
  CacheStore c;
  c.configure(4, 0);
  c.store(1, asp::net::make_buffer({1}), 0);
  EXPECT_NE(c.lookup(1, 1), nullptr);
  c.configure(8, 0);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.stats().hits, 1u) << "counters survive reconfiguration";
}

// The tables grow with the entries held; capacity and LRU/TTL behaviour are
// the configured ones.

TEST(CacheStore, EvictionsBeginExactlyAtCapacity) {
  CacheStore c;
  c.configure(100, 0);
  for (std::uint64_t k = 0; k < 100; ++k) {
    c.store(k, asp::net::make_buffer({1}), 0);
    ASSERT_EQ(c.stats().evictions, 0u) << "evicted with " << k + 1 << " of 100 held";
  }
  EXPECT_EQ(c.size(), 100u);
  EXPECT_EQ(c.slots(), 100u);
  c.store(100, asp::net::make_buffer({1}), 0);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.size(), 100u);
  EXPECT_EQ(c.slots(), 100u) << "a full store never grows past capacity";
}

TEST(CacheStore, LruOrderAndKeysSurviveIndexDoublings) {
  // 300 entries take the slot array from 16 to 300 and the probe index
  // through five doublings.
  constexpr std::uint64_t kN = 300;
  CacheStore c;
  c.configure(kN, 0);
  // Keys spread over the hash space, plus a stride that collides in the
  // low bits, so probe runs cross every rehash.
  auto key = [](std::uint64_t i) { return i * 0x9E3779B97F4A7C15ull + (i << 12); };
  for (std::uint64_t i = 0; i < kN; ++i) {
    c.store(key(i), asp::net::make_buffer({static_cast<std::uint8_t>(i)}), 0);
  }
  for (std::uint64_t i = 0; i < kN; ++i) {
    const asp::net::Buffer* b = c.lookup(key(i), 1);
    ASSERT_NE(b, nullptr) << "key " << i << " lost across a doubling";
    EXPECT_EQ((**b)[0], static_cast<std::uint8_t>(i));
  }
  // The lookups promoted keys in order 0..kN-1, so the coldest is 0, then
  // 1, ...; each new fill evicts exactly the next one.
  for (std::uint64_t i = 0; i < 5; ++i) {
    c.store(key(kN + i), asp::net::make_buffer({0}), 2);
    EXPECT_FALSE(c.contains(key(i), 2)) << "key " << i << " should be the LRU victim";
    EXPECT_TRUE(c.contains(key(i + 1), 2));
  }
  EXPECT_EQ(c.stats().evictions, 5u);
}

TEST(CacheStore, CapacityIsTheConfiguredValue) {
  CacheStore c;
  EXPECT_EQ(c.capacity(), CacheStore::kDefaultEntries);
  EXPECT_EQ(c.slots(), 0u) << "construction builds no table";
  c.configure(4096, 0);
  EXPECT_EQ(c.capacity(), 4096u);
  EXPECT_EQ(c.slots(), 0u) << "configure builds no table";
  for (std::uint64_t k = 0; k < 20; ++k) c.store(k, asp::net::make_buffer({1}), 0);
  EXPECT_EQ(c.capacity(), 4096u);
  EXPECT_GE(c.slots(), 20u);
  EXPECT_LT(c.slots(), 4096u);
  c.clear();
  EXPECT_EQ(c.capacity(), 4096u);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.slots(), 0u);
}

TEST(CacheStore, ExpiredSlotIsReusedBeforeTheTableGrows) {
  CacheStore c;
  c.configure(64, 100);
  for (std::uint64_t k = 1; k <= 16; ++k) c.store(k, asp::net::make_buffer({1}), 0);
  ASSERT_EQ(c.slots(), 16u);
  EXPECT_EQ(c.lookup(1, 500), nullptr);  // expired: its slot is freed
  EXPECT_EQ(c.stats().expired, 1u);
  c.store(99, asp::net::make_buffer({2}), 500);
  EXPECT_EQ(c.slots(), 16u) << "the freed slot must be taken before growing";
  EXPECT_EQ(c.size(), 16u);
  EXPECT_EQ(c.stats().evictions, 0u);
  c.store(100, asp::net::make_buffer({3}), 500);
  EXPECT_EQ(c.slots(), 17u) << "no free slot left: now the table grows";
}

TEST(CacheStore, UnconfiguredAspGetsTheDefaultCapacity) {
  // An ASP that never calls cacheConfigure fills its node's store: the 65th
  // distinct key is the first to evict.
  asp::net::Network net;
  asp::net::Node& a = net.add_node("a");
  asp::net::Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, asp::net::millis(1));
  runtime::AspRuntime rt(b);
  rt.install(R"(
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (cacheStore(ps, #3 p); deliver(p); (ps + 1, ss))
)");
  asp::net::UdpSocket sink(b, 7, [](const asp::net::Packet&) {});
  asp::net::UdpSocket src(a, 9999, nullptr);
  for (int i = 0; i < 65; ++i) src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
  net.run();
  EXPECT_EQ(rt.cache().capacity(), CacheStore::kDefaultEntries);
  EXPECT_EQ(rt.cache().stats().fills, 65u);
  EXPECT_EQ(rt.cache().size(), 64u);
  EXPECT_EQ(rt.cache().stats().evictions, 1u);
}

TEST(CacheStore, KeyOfSeparatesFields) {
  // "GET /ab" vs "GET /a" + "b…" must not collide: fields are delimited.
  EXPECT_NE(CacheStore::key_of("GET", 1, "/ab"), CacheStore::key_of("GETb", 1, "/a"));
  EXPECT_NE(CacheStore::key_of("GET", 1, "/a"), CacheStore::key_of("GET", 2, "/a"));
  EXPECT_NE(CacheStore::key_of(std::uint64_t{1}, 2), CacheStore::key_of(std::uint64_t{2}, 1));
}

// --- the ASP itself ----------------------------------------------------------

TEST(CacheProxyAsp, PassesAllFiveAnalyses) {
  // Unlike the load-balancing gateway, the cache proxy is fully verifiable:
  // hit replies ride the destination-preserving `hit` channel, so the global
  // termination scan never sees a changed cycle, and every raising primitive
  // is wrapped in try. The cost analysis must also clear the budget.
  auto report =
      planp::analyze(planp::typecheck(planp::parse(asp_source("cache_proxy"))));
  EXPECT_TRUE(report.local_termination);
  EXPECT_TRUE(report.global_termination) << report.global_termination_detail;
  EXPECT_TRUE(report.guaranteed_delivery) << report.delivery_detail;
  EXPECT_TRUE(report.linear_duplication) << report.duplication_detail;
  EXPECT_TRUE(report.cost_bounded) << report.cost_detail;
  EXPECT_TRUE(report.accepted());
}

// --- experiment: offload, equivalence, chaos, determinism --------------------

CacheExperiment::Options small_opts(CacheMode mode) {
  CacheExperiment::Options o;
  o.mode = mode;
  o.client_machines = 3;
  o.processes_per_machine = 2;
  o.trace_accesses = 4'000;
  o.trace_files = 50;       // hot universe: high hit ratio
  o.cache_entries = 64;
  return o;
}

TEST(CacheExperiment, ProxyOffloadsOrigin) {
  CacheExperiment uncached(small_opts(CacheMode::kNoCache));
  auto base = uncached.run(5.0);
  ASSERT_GT(base.completed, 100u);
  // Every completion crossed the origin (a few more may be in flight).
  EXPECT_GE(base.origin_served, base.completed) << "no cache: all to origin";

  CacheExperiment cached(small_opts(CacheMode::kAspProxy));
  auto prox = cached.run(5.0);
  ASSERT_GT(prox.completed, 100u);
  EXPECT_GT(prox.cache.hits, 0u);
  // The acceptance bar: a Zipf workload against a hot cache cuts origin
  // traffic at least in half per completed request.
  double base_ratio = static_cast<double>(base.origin_served) /
                      static_cast<double>(base.completed);
  double prox_ratio = static_cast<double>(prox.origin_served) /
                      static_cast<double>(prox.completed);
  EXPECT_LT(prox_ratio, base_ratio / 2.0)
      << "origin=" << prox.origin_served << " completed=" << prox.completed;
}

TEST(CacheExperiment, PlanpAndNativeProxiesAreByteEquivalent) {
  std::map<std::string, std::vector<std::uint8_t>> asp_bodies, native_bodies;
  planp::CacheStore::Stats asp_stats, native_stats;
  for (CacheMode mode : {CacheMode::kAspProxy, CacheMode::kNativeProxy}) {
    auto& bodies = mode == CacheMode::kAspProxy ? asp_bodies : native_bodies;
    CacheExperiment exp(small_opts(mode));
    for (auto& pool : exp.pools()) {
      pool->on_response([&bodies](const std::string& path,
                                  const std::vector<std::uint8_t>& body) {
        auto it = bodies.find(path);
        if (it == bodies.end()) {
          bodies.emplace(path, body);
        } else {
          EXPECT_EQ(it->second, body) << "response for " << path
                                      << " changed between deliveries";
        }
      });
    }
    auto r = exp.run(3.0);
    ASSERT_GT(r.completed, 50u) << cache_mode_name(mode);
    EXPECT_GT(r.cache.hits, 0u) << cache_mode_name(mode);
    (mode == CacheMode::kAspProxy ? asp_stats : native_stats) = r.cache;
  }
  // Same policy, same wire bytes: every path both rigs saw must agree, and
  // every body must be the origin-canonical one (hits are not stale blends).
  ASSERT_FALSE(asp_bodies.empty());
  for (const auto& [path, body] : asp_bodies) {
    EXPECT_EQ(body, cache_response_body(path)) << path;
    auto it = native_bodies.find(path);
    if (it != native_bodies.end()) {
      EXPECT_EQ(it->second, body) << path;
    }
  }
  // Identical closed-loop schedules: the two proxies see the same requests,
  // so the cache verdicts line up exactly.
  EXPECT_EQ(asp_stats.hits, native_stats.hits);
  EXPECT_EQ(asp_stats.misses, native_stats.misses);
  EXPECT_EQ(asp_stats.fills, native_stats.fills);
}

TEST(CacheExperiment, ConvergesUnderTenPercentLoss) {
  CacheExperiment exp(small_opts(CacheMode::kAspProxy));
  asp::net::Medium* lan = exp.network().find_medium("origin-lan");
  ASSERT_NE(lan, nullptr);
  asp::net::Impairments imp;
  imp.loss_rate = 0.10;
  imp.seed = 41;
  lan->set_impairments(imp);
  auto r = exp.run(10.0);
  EXPECT_GT(lan->dropped_loss(), 0u) << "the chaos scenario must actually drop";
  // Losses cost watchdog timeouts, but the pools keep making progress and
  // the cache keeps serving hits (a hit never crosses the lossy origin LAN).
  EXPECT_GT(r.completed, 200u);
  EXPECT_GT(r.cache.hits, 0u);
}

struct CacheOutcome {
  CacheRunResult result;
};

CacheOutcome run_sharded(int shards) {
  CacheExperiment exp(small_opts(CacheMode::kAspProxy));
  std::unique_ptr<asp::net::ParallelExecutor> exec;
  if (shards > 1) {
    // 3 client access links are cuttable: clients + origin complex = 4 islands.
    exec = std::make_unique<asp::net::ParallelExecutor>(exp.network(), shards);
    EXPECT_GE(exec->shard_count(), 2);
  }
  return CacheOutcome{exp.run(5.0)};
}

TEST(CacheExperiment, ShardedCacheCountersEqualSerial) {
  CacheOutcome serial = run_sharded(1);
  CacheOutcome sharded = run_sharded(4);
  EXPECT_EQ(serial.result.completed, sharded.result.completed);
  EXPECT_EQ(serial.result.failed, sharded.result.failed);
  EXPECT_EQ(serial.result.origin_served, sharded.result.origin_served);
  EXPECT_EQ(serial.result.cache.hits, sharded.result.cache.hits);
  EXPECT_EQ(serial.result.cache.misses, sharded.result.cache.misses);
  EXPECT_EQ(serial.result.cache.fills, sharded.result.cache.fills);
  EXPECT_EQ(serial.result.cache.evictions, sharded.result.cache.evictions);
  EXPECT_GT(serial.result.cache.hits, 0u);
}

}  // namespace
}  // namespace asp::apps
