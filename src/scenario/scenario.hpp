// Scenario: ties a .scn config to a built Network, a Workload and an
// optional ASP monitor tier, runs it (serial or sharded), and reports
// deterministic metrics.
//
// The metrics JSON deliberately contains ONLY simulation-derived values —
// counters, the topology digest, simulated time — never shard counts,
// wall-clock or rates derived from them. That is what lets the determinism
// gates compare the serialized metrics of a serial run byte-for-byte
// against shards=4 and shards=16 runs of the same .scn (ISSUE acceptance;
// bench_parallel and tests/scenario_test.cpp both do exactly this).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "scenario/scn.hpp"
#include "scenario/topology.hpp"
#include "scenario/workload.hpp"

namespace asp::runtime {
class AspRuntime;
}

namespace asp::scenario {

class EdgeCache;  // the native (hand-written C++) edge cache; scenario.cpp

/// Everything a scenario run reports. All fields are byte-identical across
/// shard counts except `shards`/`islands`, which to_json() therefore omits.
struct ScenarioMetrics {
  std::string name;
  std::uint64_t topo_digest = 0;
  std::uint64_t nodes = 0, hosts = 0, routers = 0, media = 0;
  net::SimTime sim_time = 0;
  WorkloadStats workload;
  // Summed over media in creation order.
  std::uint64_t delivered_packets = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t dropped_queue = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_down = 0;
  std::uint64_t dropped_unaddressed = 0;
  // Summed over installed monitor runtimes (0 when asp_monitors = none).
  std::uint64_t asp_handled = 0;
  std::uint64_t asp_sent = 0;
  // Summed over the edge cache tier in edge-router order (0 when
  // asp_cache = none). origin_requests lives in `workload`.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_fills = 0;
  std::uint64_t cache_evictions = 0;
  // Execution details — NOT serialized (differ across shard counts).
  int shards = 1;
  int islands = 0;
  std::uint64_t windows = 0;         // executor barrier iterations
  std::uint64_t cross_messages = 0;  // frames merged across shards

  /// Deterministic JSON of the simulation-derived fields only.
  std::string to_json() const;
};

/// One instantiated scenario. Construction builds the topology (under
/// obs::ScopedCoarseMetrics — a 10^4-node build must not mint a registry
/// counter per node and per medium), the workload apps and the monitor ASPs;
/// run() executes it.
class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& cfg);
  ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  net::Network& network() { return net_; }
  const ScenarioConfig& config() const { return cfg_; }
  const BuiltTopology& topology() const { return topo_; }
  /// The PLAN-P edge cache tier: one runtime per edge router, all sharing
  /// one compiled protocol (empty unless [asp] cache = planp).
  const std::vector<std::unique_ptr<runtime::AspRuntime>>& cache_runtimes() const {
    return cache_asps_;
  }

  /// Runs for cfg.run.duration on `shards` shards (0 = take cfg.run.shards;
  /// 1 = serial). One-shot: call run() once per Scenario instance.
  ScenarioMetrics run(int shards = 0);

 private:
  void apply_impairments();

  ScenarioConfig cfg_;
  net::Network net_;
  BuiltTopology topo_;
  std::unique_ptr<Workload> workload_;
  std::vector<std::unique_ptr<runtime::AspRuntime>> monitors_;
  // The edge cache tier, one per edge router ([asp] cache = planp|native).
  std::vector<std::unique_ptr<runtime::AspRuntime>> cache_asps_;
  std::vector<std::unique_ptr<EdgeCache>> cache_native_;
};

}  // namespace asp::scenario
