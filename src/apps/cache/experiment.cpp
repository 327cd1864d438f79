#include "apps/cache/experiment.hpp"

#include "apps/asp_files.hpp"

namespace asp::apps {

using asp::net::ip;
using asp::net::Ipv4Addr;
using asp::net::millis;
using asp::net::seconds;

namespace {
const Ipv4Addr kOrigin = ip("10.0.2.1");
}  // namespace

const char* cache_mode_name(CacheMode m) {
  switch (m) {
    case CacheMode::kNoCache: return "no-cache";
    case CacheMode::kAspProxy: return "asp-proxy";
    case CacheMode::kNativeProxy: return "native-proxy";
  }
  return "?";
}

CacheExperiment::CacheExperiment(Options opts) : opts_(std::move(opts)) { build(); }
CacheExperiment::~CacheExperiment() = default;

void CacheExperiment::build() {
  proxy_ = &net_.add_router("proxy");

  // Origin segment: 100 Mb/s.
  auto& origin_lan = net_.segment("origin-lan", 100e6, asp::net::micros(20));
  net_.attach(*proxy_, origin_lan, ip("10.0.2.254"));
  origin_node_ = &net_.add_node("origin");
  net_.attach(*origin_node_, origin_lan, kOrigin);
  origin_node_->routes().add_default(0, ip("10.0.2.254"));
  origin_ = std::make_unique<CacheOrigin>(*origin_node_);

  // Client machines on dedicated 10 Mb/s access links.
  std::vector<TraceEntry> trace =
      make_trace(opts_.trace_accesses, opts_.trace_files);
  for (int c = 0; c < opts_.client_machines; ++c) {
    asp::net::Node& n = net_.add_node("client" + std::to_string(c));
    Ipv4Addr caddr(10, 1, static_cast<std::uint8_t>(c + 1), 1);
    Ipv4Addr gaddr(10, 1, static_cast<std::uint8_t>(c + 1), 254);
    net_.link(n, caddr, *proxy_, gaddr, 10e6, millis(1));
    n.routes().add_default(0, gaddr);

    // Rotate the trace per machine so the pools do not run in lockstep.
    std::size_t off = (static_cast<std::size_t>(c) * 997) % trace.size();
    std::vector<TraceEntry> rotated(trace.begin() + static_cast<long>(off),
                                    trace.end());
    rotated.insert(rotated.end(), trace.begin(),
                   trace.begin() + static_cast<long>(off));
    pools_.push_back(std::make_unique<CacheClientPool>(
        n, kOrigin, std::move(rotated), opts_.processes_per_machine));
  }

  switch (opts_.mode) {
    case CacheMode::kAspProxy: {
      rt_ = std::make_unique<asp::runtime::AspRuntime>(*proxy_);
      // Unlike the load-balancing gateway, the cache proxy passes all five
      // analyses (hit replies ride the destination-preserving `hit` channel),
      // so the default verified-download path applies. The file's
      // originHost and httpPort are kOrigin and kCachePort.
      rt_->install(asp_source(
          "cache_proxy",
          {{"cacheEntries", static_cast<std::int64_t>(opts_.cache_entries)},
           {"cacheTtlMs", opts_.cache_ttl_ms}}));
      break;
    }
    case CacheMode::kNativeProxy:
      native_ = std::make_unique<NativeCacheProxy>(*proxy_, kOrigin,
                                                   opts_.cache_entries,
                                                   opts_.cache_ttl_ms);
      break;
    case CacheMode::kNoCache:
      break;  // plain IP forwarding
  }
}

planp::CacheStore::Stats CacheExperiment::cache_stats() const {
  if (rt_ != nullptr) return rt_->cache().stats();
  if (native_ != nullptr) return native_->store().stats();
  return {};
}

CacheRunResult CacheExperiment::run(double duration_sec) {
  for (auto& pool : pools_) pool->start();
  net_.run_until(seconds(duration_sec));

  CacheRunResult r;
  r.duration_sec = duration_sec;
  for (auto& pool : pools_) {
    r.completed += pool->completed();
    r.failed += pool->failed();
    r.mean_latency_ms += pool->mean_latency_ms();
  }
  r.mean_latency_ms /= static_cast<double>(pools_.size());
  r.requests_per_sec = static_cast<double>(r.completed) / duration_sec;
  r.origin_served = origin_->requests_served();
  r.cache = cache_stats();
  return r;
}

}  // namespace asp::apps
