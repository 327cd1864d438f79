// Tier-1 coverage for the scenario layer (DESIGN.md §6g): generator
// determinism, island structure, the .scn parser's reject-typos policy, the
// serial-vs-sharded determinism gate on the checked-in 1k-node scenario, the
// client bundles' pending events and timeout counts, and the tx_time
// rounding regression that the 10^5-user workloads exposed.
#include <algorithm>
#include <functional>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "net/exec.hpp"
#include "net/network.hpp"
#include "net/time.hpp"
#include "obs/metrics.hpp"
#include "runtime/engine.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scn.hpp"
#include "scenario/topology.hpp"

namespace asp::scenario {
namespace {

// ---------------------------------------------------------------------------
// tx_time rounding (regression: truncation gave 0 ns for small frames on
// fast links, stacking every event of an aggregated flow on one timestamp).

TEST(TxTime, NeverZeroForNonemptyFrame) {
  // 64 B at 1 Tb/s is 0.512 ns — must round UP to 1, not down to 0.
  EXPECT_EQ(net::tx_time(64, 1e12), 1u);
  EXPECT_EQ(net::tx_time(1, 1e18), 1u);
}

TEST(TxTime, RoundsUpFractionalResults) {
  // 100 B at 1 Gb/s = 800 ns exactly; 101 B = 808 ns exactly.
  EXPECT_EQ(net::tx_time(100, 1e9), 800u);
  // 100 B at 3 Gb/s = 266.67 ns -> 267.
  EXPECT_EQ(net::tx_time(100, 3e9), 267u);
}

TEST(TxTime, ExactAndEmptyCasesUnchanged) {
  EXPECT_EQ(net::tx_time(0, 1e9), 0u);          // nothing to serialize
  EXPECT_EQ(net::tx_time(1500, 1e9), 12000u);   // exact: no spurious +1
}

// ---------------------------------------------------------------------------
// Generator determinism: same (seed, params) => byte-identical topology,
// witnessed by the structural digest plus node/media counts.

TEST(TopologyGen, SameParamsSameDigest) {
  TopologyParams p;
  p.kind = "fat_tree";
  p.k = 4;
  p.hosts_per_edge = 2;

  net::Network a, b;
  BuiltTopology ta = build_topology(a, p);
  BuiltTopology tb = build_topology(b, p);
  EXPECT_EQ(ta.node_count(), tb.node_count());
  EXPECT_EQ(topology_digest(a), topology_digest(b));
}

TEST(TopologyGen, SeedChangesAsHierarchyDigest) {
  TopologyParams p;
  p.kind = "as_hierarchy";
  p.t1_count = 3;
  p.t2_per_t1 = 2;
  p.seed = 1;

  net::Network a, b;
  build_topology(a, p);
  p.seed = 2;  // different multihoming choices
  build_topology(b, p);
  EXPECT_NE(topology_digest(a), topology_digest(b));
}

TEST(TopologyGen, FatTreeCounts) {
  TopologyParams p;
  p.kind = "fat_tree";
  p.k = 4;
  p.hosts_per_edge = 2;  // 4 pods x 2 edges x 2 hosts = 16 hosts, 20 switches

  net::Network net;
  BuiltTopology t = build_topology(net, p);
  EXPECT_EQ(t.hosts.size(), 16u);
  EXPECT_EQ(t.routers.size(), 20u);
  EXPECT_EQ(t.top_routers.size(), 4u);  // (k/2)^2 cores
  // Access media touch hosts; everything else is fabric.
  EXPECT_EQ(t.access_media.size(), 16u);
  EXPECT_EQ(t.fabric_media.size(), 8u * 2 + 8u * 2);  // edge-agg + agg-core
}

TEST(TopologyGen, RejectsBadParameters) {
  net::Network net;
  TopologyParams p;
  p.kind = "fat_tree";
  p.k = 5;  // odd
  EXPECT_THROW(build_topology(net, p), std::invalid_argument);
  p.k = 4;
  p.kind = "no_such_kind";
  EXPECT_THROW(build_topology(net, p), std::invalid_argument);
}

// Every generated fabric must decompose for the partitioner: p2p links with
// nonzero delay are cuttable, so even the small instances split into many
// islands (>= the host count, since every access link is also p2p).
TEST(TopologyGen, PartitionsIntoManyIslands) {
  TopologyParams p;
  p.kind = "fat_tree";
  p.k = 4;
  p.hosts_per_edge = 2;
  net::Network net;
  BuiltTopology t = build_topology(net, p);
  net::ParallelExecutor exec(net, 4);
  EXPECT_GE(exec.island_count(), static_cast<int>(t.hosts.size()));
  EXPECT_EQ(exec.shard_count(), 4);
}

TEST(TopologyGen, MetroAccessLansAreSingleIslands) {
  TopologyParams p;
  p.kind = "metro_access";
  p.metros = 2;
  p.aggs_per_metro = 2;
  p.lans_per_agg = 2;
  p.hosts_per_lan = 4;
  net::Network net;
  BuiltTopology t = build_topology(net, p);
  net::ParallelExecutor exec(net, 2);
  // EthernetSegment LANs are never cut, so islands track routers, not hosts:
  // 1 core + 2 metros + 4 aggs (each agg glued to its LAN hosts) = 7.
  EXPECT_EQ(exec.island_count(), 7);
  EXPECT_EQ(t.hosts.size(), 2u * 2u * 2u * 4u);
}

// ---------------------------------------------------------------------------
// .scn parser: happy path and the reject-typos policy.

TEST(ScnParser, ParsesFullConfig) {
  const std::string text = R"(
# comment
[topology]
kind = metro_access
metros = 3
hosts_per_lan = 5

[impairments]
scope = all
loss_rate = 0.25
jitter_us = 50

[workload]
profile = audio
users = 777
think_ms = 1500

[asp]
monitors = core

[run]
shards = 16
duration_ms = 250
)";
  ScenarioConfig cfg;
  std::string err;
  ASSERT_TRUE(parse_scn(text, cfg, err)) << err;
  EXPECT_EQ(cfg.topology.kind, "metro_access");
  EXPECT_EQ(cfg.topology.metros, 3);
  EXPECT_EQ(cfg.topology.hosts_per_lan, 5);
  EXPECT_EQ(cfg.impairments.scope, "all");
  EXPECT_DOUBLE_EQ(cfg.impairments.loss_rate, 0.25);
  EXPECT_EQ(cfg.impairments.jitter, net::micros(50));
  EXPECT_EQ(cfg.workload.users, 777u);
  EXPECT_DOUBLE_EQ(cfg.workload.think_mean_ms, 1500.0);
  // profile=audio set the shape defaults
  EXPECT_EQ(cfg.workload.frames_per_response, 8u);
  EXPECT_EQ(cfg.asp_monitors, "core");
  EXPECT_EQ(cfg.run.shards, 16);
  EXPECT_EQ(cfg.run.duration, net::millis(250));
}

TEST(ScnParser, RejectsUnknownKeyWithLineNumber) {
  ScenarioConfig cfg;
  std::string err;
  EXPECT_FALSE(parse_scn("[topology]\nkindd = fat_tree\n", cfg, err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("kindd"), std::string::npos) << err;
}

TEST(ScnParser, RejectsUnknownSectionAndOrphanKeys) {
  ScenarioConfig cfg;
  std::string err;
  EXPECT_FALSE(parse_scn("[topolgy]\n", cfg, err));
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
  // A key before any section header is an error, not part of some default.
  EXPECT_FALSE(parse_scn("kind = fat_tree\n", cfg, err));
}

TEST(ScnParser, RejectsBadValues) {
  ScenarioConfig cfg;
  std::string err;
  EXPECT_FALSE(parse_scn("[workload]\nprofile = cbr\n", cfg, err));
  EXPECT_FALSE(parse_scn("[impairments]\nscope = sometimes\n", cfg, err));
  EXPECT_FALSE(parse_scn("[asp]\nmonitors = everywhere\n", cfg, err));
  // A number outside its key's range is an error on its line, not a wrapped,
  // truncated or undefined conversion.
  const char* const kOutOfRange[] = {
      "[topology]\nk = 4294967330\n",     // does not fit an int
      "[workload]\nusers = -1\n",         // negative, for an unsigned key
      "[impairments]\nloss_rate = 1.5\n",
      "[impairments]\nloss_rate = nan\n",
      "[impairments]\njitter_us = -1\n",  // a negative SimTime
      "[run]\nduration_ms = 1e30\n",      // past 2^64 ns
      "[run]\nshards = -3\n",
      "[workload]\nthink_ms = -5\n",
  };
  for (const char* text : kOutOfRange) {
    SCOPED_TRACE(text);
    EXPECT_FALSE(parse_scn(text, cfg, err));
    EXPECT_EQ(err.rfind("line 2: ", 0), 0u) << err;
  }
}

TEST(ScnParser, CacheProfileSetsObjectUniverse) {
  ScenarioConfig cfg;
  std::string err;
  ASSERT_TRUE(parse_scn("[workload]\nprofile = cache\n", cfg, err)) << err;
  EXPECT_EQ(cfg.workload.request_bytes, 64u);
  EXPECT_EQ(cfg.workload.frames_per_response, 1u);  // single-frame: cacheable
  EXPECT_EQ(cfg.workload.objects, 512u);
  EXPECT_DOUBLE_EQ(cfg.workload.zipf_skew, 1.0);
  // Non-cache profiles must NOT leak an object universe (obj=0 on the wire
  // keeps their packet bytes — and goldens — unchanged).
  ASSERT_TRUE(parse_scn("[workload]\nprofile = audio\n", cfg, err)) << err;
  EXPECT_EQ(cfg.workload.objects, 0u);
}

TEST(ScnParser, RejectsCacheProfileTypoWithLineNumber) {
  ScenarioConfig cfg;
  std::string err;
  EXPECT_FALSE(parse_scn("[workload]\nusers = 10\nprofile = cachee\n", cfg, err));
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("http|audio|mpeg|cache"), std::string::npos) << err;
}

TEST(ScnParser, ParsesAspCacheKeys) {
  ScenarioConfig cfg;
  std::string err;
  ASSERT_TRUE(parse_scn(
      "[asp]\ncache = native\ncache_entries = 64\ncache_ttl_ms = 250\n", cfg,
      err))
      << err;
  EXPECT_EQ(cfg.asp_cache, "native");
  EXPECT_EQ(cfg.cache_entries, 64);
  EXPECT_EQ(cfg.cache_ttl_ms, 250);
  // Defaults when the section never mentions a cache tier.
  ScenarioConfig fresh;
  ASSERT_TRUE(parse_scn("[asp]\nmonitors = core\n", fresh, err)) << err;
  EXPECT_EQ(fresh.asp_cache, "none");
}

TEST(ScnParser, RejectsBadAspCacheValuesWithLineNumbers) {
  ScenarioConfig cfg;
  std::string err;
  EXPECT_FALSE(parse_scn("[asp]\ncache = squid\n", cfg, err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_FALSE(parse_scn("[asp]\ncache = planp\ncache_entries = 0\n", cfg, err));
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_FALSE(parse_scn("[asp]\ncache_ttl_ms = -5\n", cfg, err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// End-to-end determinism on the checked-in 1k-node scenario: a serial run
// and a 4-shard run of the same .scn must serialize byte-identical metrics
// (the ISSUE's acceptance gate, sized for tier-1).

TEST(ScenarioDeterminism, SerialMatchesShardedOn1kFatTree) {
  ScenarioConfig cfg;
  std::string err;
  ASSERT_TRUE(load_scn_file(std::string(ASP_SCENARIO_DIR) + "/fat_tree_1k.scn",
                            cfg, err))
      << err;
  cfg.run.duration = net::millis(40);  // keep tier-1 fast; still ~190 requests

  std::string serial, sharded;
  {
    Scenario sc(cfg);
    ScenarioMetrics m = sc.run(1);
    serial = m.to_json();
    EXPECT_GT(m.delivered_packets, 0u);
    EXPECT_GT(m.workload.completed, 0u);
  }
  {
    Scenario sc(cfg);
    ScenarioMetrics m = sc.run(4);
    sharded = m.to_json();
    EXPECT_EQ(m.shards, 4);
    EXPECT_GT(m.islands, 100);  // 125 switch-anchored islands
  }
  EXPECT_EQ(serial, sharded);
}

// Registry counter deltas over `fn` (the registry is process-wide, so other
// tests' counts are subtracted out).
std::map<std::string, std::uint64_t> counter_deltas(const std::function<void()>& fn) {
  std::map<std::string, std::uint64_t> before;
  for (const auto& [name, c] : obs::registry().counters()) before[name] = c.value();
  fn();
  std::map<std::string, std::uint64_t> delta;
  for (const auto& [name, c] : obs::registry().counters())
    delta[name] = c.value() - before[name];
  return delta;
}

ScenarioConfig fat_tree_1k(net::SimTime duration) {
  ScenarioConfig cfg;
  std::string err;
  EXPECT_TRUE(load_scn_file(std::string(ASP_SCENARIO_DIR) + "/fat_tree_1k.scn", cfg, err))
      << err;
  cfg.run.duration = duration;
  return cfg;
}

// In a sharded run every shard thread bumps the same coarse node/_agg and
// medium/_agg instruments: the registry totals must equal the serial run's
// exactly.
TEST(ScenarioDeterminism, RegistryCountersMatchSerialOn1kFatTree) {
  const ScenarioConfig cfg = fat_tree_1k(net::millis(40));
  const auto serial = counter_deltas([&] { Scenario(cfg).run(1); });
  const auto sharded = counter_deltas([&] { Scenario(cfg).run(4); });
  for (const char* name : {"node/_agg/net/rx_packets", "medium/_agg/delivered_packets"}) {
    EXPECT_GT(serial.at(name), 0u) << name;
    EXPECT_EQ(sharded.at(name), serial.at(name)) << name;
  }
  EXPECT_EQ(sharded, serial);
}

// Repeated runs on one executor: 1 ms run_until slices at 4 shards must give
// the metrics JSON and registry totals of one serial call. Each slice ends on
// the end barrier and starts the next window sequence from the epoch parity
// and posted-arrival state the last one left.
TEST(ScenarioDeterminism, SlicedShardedRunMatchesOneSerialCallOn1kFatTree) {
  const ScenarioConfig cfg = fat_tree_1k(net::millis(40));
  std::string serial_json, sliced_json;
  const auto serial = counter_deltas([&] { serial_json = Scenario(cfg).run(1).to_json(); });
  int slices = 0;
  const auto sliced = counter_deltas([&] {
    Scenario sc(cfg);
    net::Network& net = sc.network();
    net::ParallelExecutor exec(net, 4);
    ASSERT_EQ(exec.shard_count(), 4);
    // Scenario::run(1) builds no executor of its own; its one run_until call
    // lands in this override, which drives `exec` slice by slice.
    net.set_run_override(
        [&](net::SimTime t) {
          while (net.now() < t) {
            exec.run_until(std::min(t, net.now() + net::millis(1)));
            ++slices;
          }
        },
        [&] { exec.run(); });
    sliced_json = sc.run(1).to_json();
  });
  EXPECT_EQ(slices, 40);
  EXPECT_EQ(sliced_json, serial_json);
  EXPECT_EQ(sliced, serial);
}

// A client bundle keeps one live think timer and at most one pending expiry,
// not a timer per request waiting out its timeout. After 3 s of the 1k
// fat-tree (1.5 s timeout) the queue holds fewer than four events per host;
// a timer per request would leave about ten.
TEST(ScenarioWorkload, PendingEventsStayBelowFourPerHost) {
  Scenario sc(fat_tree_1k(net::seconds(3)));
  const ScenarioMetrics m = sc.run(1);
  EXPECT_GT(m.workload.completed, 0u);
  EXPECT_LT(sc.network().events().pending(), 4 * m.hosts);
}

// Enough loss for timeouts to fire: the counts stay those of one timer per
// request, and the metrics stay byte-identical at 1 and 4 shards.
TEST(ScenarioWorkload, TimeoutsAreUnchangedAndShardIndependent) {
  ScenarioConfig cfg = fat_tree_1k(net::seconds(4));
  cfg.impairments.loss_rate = 0.02;
  cfg.impairments.seed = 1;
  cfg.workload.seed = 1;
  std::string serial;
  {
    const ScenarioMetrics m = Scenario(cfg).run(1);
    EXPECT_EQ(m.workload.requests, 19144u);
    EXPECT_EQ(m.workload.completed, 17636u);
    EXPECT_EQ(m.workload.timeouts, 986u);
    serial = m.to_json();
  }
  EXPECT_EQ(Scenario(cfg).run(4).to_json(), serial);
}

// Same config, two fresh instantiations, same seed => identical metrics:
// nothing in the build or run path leaks real randomness or address-ordering.
TEST(ScenarioDeterminism, RebuildReproducesMetrics) {
  ScenarioConfig cfg;
  std::string err;
  ASSERT_TRUE(load_scn_file(
      std::string(ASP_SCENARIO_DIR) + "/metro_access_audio.scn", cfg, err))
      << err;
  cfg.run.duration = net::millis(30);

  std::string first, second;
  {
    Scenario sc(cfg);
    first = sc.run(1).to_json();
  }
  {
    Scenario sc(cfg);
    second = sc.run(2).to_json();
  }
  EXPECT_EQ(first, second);
}

// The verified edge-cache tier on the checked-in cache scenario: hits must
// happen, hits must offload the origin relative to completed fetches, and
// the metrics JSON must stay byte-identical serial vs sharded (the cache
// counters are part of the serialized surface, so this also witnesses that
// per-edge CacheStore state aggregates deterministically).
TEST(ScenarioCache, EdgeCacheHitsAndStaysDeterministic) {
  ScenarioConfig cfg;
  std::string err;
  ASSERT_TRUE(load_scn_file(
      std::string(ASP_SCENARIO_DIR) + "/fat_tree_cache.scn", cfg, err))
      << err;
  ASSERT_EQ(cfg.asp_cache, "planp");
  cfg.run.duration = net::millis(120);  // tier-1 sized; plenty of re-fetches

  std::string serial, sharded;
  ScenarioMetrics ms;
  {
    Scenario sc(cfg);
    ms = sc.run(1);
    serial = ms.to_json();
  }
  EXPECT_GT(ms.cache_hits, 0u);
  EXPECT_GT(ms.cache_fills, 0u);
  EXPECT_GT(ms.workload.completed, 0u);
  // Every completed fetch is either served at the edge or by the origin.
  EXPECT_LT(ms.workload.origin_requests, ms.workload.completed);
  {
    Scenario sc(cfg);
    sharded = sc.run(4).to_json();
  }
  EXPECT_EQ(serial, sharded);
}

// The edge tier installs one compiled protocol on every edge router: the
// pipeline (and its planp/install/* instruments) runs once per tier, not
// once per router.
TEST(ScenarioCache, EdgeTierCompilesOnce) {
  ScenarioConfig cfg;
  std::string err;
  ASSERT_TRUE(load_scn_file(
      std::string(ASP_SCENARIO_DIR) + "/fat_tree_cache.scn", cfg, err))
      << err;
  ASSERT_EQ(cfg.asp_cache, "planp");
  ASSERT_EQ(cfg.asp_monitors, "core");
  obs::Counter& installs = obs::registry().counter("planp/install/count");
  {
    // As checked in, the scenario has two ASP tiers: one compilation each.
    const std::uint64_t before = installs.value();
    Scenario both(cfg);
    EXPECT_EQ(installs.value() - before, 2u);
  }
  cfg.asp_monitors = "none";
  const std::uint64_t before = installs.value();
  Scenario sc(cfg);
  EXPECT_EQ(installs.value() - before, 1u);

  const auto& tier = sc.cache_runtimes();
  ASSERT_EQ(tier.size(), sc.topology().edge_routers.size());
  ASSERT_GT(tier.size(), 1u);
  for (const auto& rt : tier) {
    ASSERT_TRUE(rt->installed());
    EXPECT_EQ(&rt->protocol(), &tier.front()->protocol());
    if (rt != tier.front()) {
      EXPECT_NE(&rt->engine(), &tier.front()->engine());
    }
  }
}

// The hand-written native hook is a drop-in twin of the PLAN-P ASP: same
// scenario, same seed, exactly the same cache verdicts and origin load.
TEST(ScenarioCache, NativeTierMatchesPlanpVerdicts) {
  ScenarioConfig cfg;
  std::string err;
  ASSERT_TRUE(load_scn_file(
      std::string(ASP_SCENARIO_DIR) + "/fat_tree_cache.scn", cfg, err))
      << err;
  cfg.run.duration = net::millis(120);

  ScenarioMetrics planp, native;
  {
    cfg.asp_cache = "planp";
    Scenario sc(cfg);
    planp = sc.run(1);
  }
  {
    cfg.asp_cache = "native";
    Scenario sc(cfg);
    native = sc.run(1);
  }
  EXPECT_EQ(planp.cache_hits, native.cache_hits);
  EXPECT_EQ(planp.cache_misses, native.cache_misses);
  EXPECT_EQ(planp.cache_fills, native.cache_fills);
  EXPECT_EQ(planp.workload.origin_requests, native.workload.origin_requests);
  EXPECT_EQ(planp.workload.completed, native.workload.completed);
  EXPECT_GT(planp.cache_hits, 0u);
}

// The ASP monitor tier actually sees traffic: metro_access with monitors=core
// forwards every cross-metro packet through the counting ASP.
TEST(ScenarioAsp, CoreMonitorCountsTransitTraffic) {
  ScenarioConfig cfg;
  std::string err;
  ASSERT_TRUE(load_scn_file(
      std::string(ASP_SCENARIO_DIR) + "/metro_access_audio.scn", cfg, err))
      << err;
  ASSERT_EQ(cfg.asp_monitors, "core");
  cfg.run.duration = net::millis(30);

  Scenario sc(cfg);
  ScenarioMetrics m = sc.run(1);
  EXPECT_GT(m.asp_handled, 0u);
  EXPECT_EQ(m.asp_handled, m.asp_sent);  // pure forwarder: no drops
  EXPECT_GT(m.workload.completed, 0u);   // requests survive the ASP hop
}

}  // namespace
}  // namespace asp::scenario
