// The in-network caching-proxy experiment (ROADMAP item 2): measures origin
// offload and client latency with the edge cache off, as a PLAN-P ASP, and as
// the hand-written C++ proxy.
#pragma once

#include <memory>
#include <vector>

#include "apps/cache/cache.hpp"
#include "net/network.hpp"
#include "runtime/engine.hpp"

namespace asp::apps {

/// The three measured configurations.
enum class CacheMode {
  kNoCache,       // every request rides through to the origin
  kAspProxy,      // asps/cache_proxy.planp installed at the edge router
  kNativeProxy,   // the hand-written C++ proxy at the same router
};

const char* cache_mode_name(CacheMode m);

struct CacheRunResult {
  double duration_sec = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double requests_per_sec = 0;
  double mean_latency_ms = 0;
  std::uint64_t origin_served = 0;     // requests that reached the origin
  planp::CacheStore::Stats cache;      // zeros in kNoCache
};

/// Topology: N client machines on dedicated 10 Mb/s links to an edge router,
/// which fronts the origin's 100 Mb/s segment. The cache (when enabled) sits
/// on the edge router — the natural aggregation point, where the paper
/// deploys its ASPs.
class CacheExperiment {
 public:
  struct Options {
    CacheMode mode = CacheMode::kAspProxy;
    int client_machines = 4;
    int processes_per_machine = 4;
    std::size_t trace_accesses = 80'000;
    std::size_t trace_files = 2000;     // Zipf universe size
    std::size_t cache_entries = 256;
    std::int64_t cache_ttl_ms = 0;      // <=0: never expires
  };

  explicit CacheExperiment(Options opts);
  ~CacheExperiment();

  CacheRunResult run(double duration_sec);

  asp::net::Network& network() { return net_; }
  asp::net::Node& proxy() { return *proxy_; }
  asp::runtime::AspRuntime* proxy_runtime() { return rt_.get(); }
  CacheOrigin& origin() { return *origin_; }
  const std::vector<std::unique_ptr<CacheClientPool>>& pools() const {
    return pools_;
  }

  /// The live cache counters for the active mode (all-zero under kNoCache).
  planp::CacheStore::Stats cache_stats() const;

 private:
  void build();

  Options opts_;
  asp::net::Network net_;
  asp::net::Node* proxy_ = nullptr;
  asp::net::Node* origin_node_ = nullptr;
  std::unique_ptr<CacheOrigin> origin_;
  std::vector<std::unique_ptr<CacheClientPool>> pools_;
  std::unique_ptr<asp::runtime::AspRuntime> rt_;        // kAspProxy
  std::unique_ptr<NativeCacheProxy> native_;            // kNativeProxy
};

}  // namespace asp::apps
