#include "scenario/scenario.hpp"

#include "apps/asp_files.hpp"
#include "net/exec.hpp"
#include "obs/metrics.hpp"
#include "runtime/engine.hpp"

namespace asp::scenario {

namespace {

void add_impairments(net::Medium* m, const ImpairmentConfig& c,
                     std::uint64_t salt) {
  net::Impairments imp;
  imp.loss_rate = c.loss_rate;
  imp.corrupt_rate = c.corrupt_rate;
  imp.duplicate_rate = c.duplicate_rate;
  imp.jitter = c.jitter;
  // Per-medium stream: same config everywhere, decorrelated draws.
  imp.seed = c.seed ^ (0x9E3779B97F4A7C15ull * (salt + 1));
  m->set_impairments(imp);
}

void append_kv(std::string& out, const char* key, std::uint64_t v, bool last = false) {
  out += "  \"";
  out += key;
  out += "\": ";
  out += std::to_string(v);
  out += last ? "\n" : ",\n";
}

}  // namespace

/// The native edge cache ([asp] cache = native): the policy of
/// asps/scenario_edge_cache.planp hand-written as a C++ IP hook — the
/// planp-vs-native pair that makes PLAN-P's interpretation overhead
/// measurable at scenario scale (the small-rig twin lives in src/apps/cache). Hit replies carry the
/// same `hit` channel tag the ASP uses, and tagged packets pass through
/// untouched, so both tiers fill and serve identically along a path.
class EdgeCache {
 public:
  EdgeCache(net::Node& router, std::size_t entries, std::int64_t ttl_ms)
      : node_(router),
        hit_tag_(net::ChannelTags::intern("hit")) {
    store_.configure(entries, ttl_ms);
    node_.set_ip_hook(
        [this](net::Packet& p, net::Interface&) { return on_packet(p); });
  }

  const planp::CacheStore& store() const { return store_; }

 private:
  static std::uint64_t le64(const std::vector<std::uint8_t>& v, std::size_t at) {
    std::uint64_t x = 0;
    if (at + 8 > v.size()) return 0;  // total, like the ASP's blobInt
    for (std::size_t i = 0; i < 8; ++i) x |= std::uint64_t{v[at + i]} << (i * 8);
    return x;
  }

  bool on_packet(net::Packet& p) {
    if (!p.udp || p.channel_tag != 0) return false;  // hits pass through
    const std::vector<std::uint8_t>& b = p.payload.bytes();
    const auto now_ms =
        static_cast<std::int64_t>(node_.events().now() / net::kNsPerMs);

    // Object request toward a server: serve a held copy from the edge.
    if (p.udp->dport == kServerPort && le64(b, 16) != 0) {
      const std::uint64_t key =
          planp::CacheStore::key_of(le64(b, 16), p.ip.dst.bits());
      if (const net::Buffer* body = store_.lookup(key, now_ms)) {
        // Copy the cached frame (pooled; capacity guaranteed) and rewrite
        // its seq field to the requester's.
        net::Buffer out = net::acquire_buffer((*body)->size());
        auto& bytes = const_cast<std::vector<std::uint8_t>&>(*out);
        bytes = **body;
        for (std::size_t i = 0; i < 8; ++i) bytes[i] = b[i];
        net::Packet reply = net::Packet::make_udp(
            p.ip.dst, p.ip.src, kServerPort, p.udp->sport,
            net::Payload(std::move(out)));
        reply.channel_tag = hit_tag_;
        reply.id = node_.next_packet_id();
        node_.forward(std::move(reply));
        return true;  // consumed: the request never reaches the server
      }
      return false;  // miss: standard forwarding continues toward the server
    }

    // Single-frame object response from a server: fill, let it continue.
    if (p.udp->sport == kServerPort && le64(b, 13) != 0) {
      store_.store(planp::CacheStore::key_of(le64(b, 13), p.ip.src.bits()),
                   p.payload.buffer(), now_ms);
    }
    return false;
  }

  net::Node& node_;
  planp::CacheStore store_;
  std::uint32_t hit_tag_;  // interned once: intern takes a process-wide lock
};

Scenario::Scenario(const ScenarioConfig& cfg) : cfg_(cfg) {
  // Coarse metrics: one aggregate counter for all nodes and one for all
  // media, not one each — see obs::instance_metrics_enabled().
  obs::ScopedCoarseMetrics coarse;
  topo_ = build_topology(net_, cfg_.topology);
  workload_ = std::make_unique<Workload>(topo_.hosts, cfg_.workload);
  // Each tier's ASP is compiled once and shared by every router of the tier;
  // each router instantiates its own engine, states and cache.
  if (cfg_.asp_monitors == "core") {
    const auto proto =
        planp::Protocol::compile(apps::asp_source("scenario_monitor"));
    for (net::Node* r : topo_.top_routers) {
      auto rt = std::make_unique<runtime::AspRuntime>(*r);
      rt->install(proto);
      monitors_.push_back(std::move(rt));
    }
  }
  if (cfg_.asp_cache == "planp") {
    // Default options: the protocol must verify.
    const auto proto = planp::Protocol::compile(apps::asp_source(
        "scenario_edge_cache", {{"cacheEntries", cfg_.cache_entries},
                                {"cacheTtlMs", cfg_.cache_ttl_ms}}));
    for (net::Node* r : topo_.edge_routers) {
      auto rt = std::make_unique<runtime::AspRuntime>(*r);
      rt->install(proto);
      cache_asps_.push_back(std::move(rt));
    }
  } else if (cfg_.asp_cache == "native") {
    for (net::Node* r : topo_.edge_routers) {
      cache_native_.push_back(std::make_unique<EdgeCache>(
          *r, static_cast<std::size_t>(cfg_.cache_entries), cfg_.cache_ttl_ms));
    }
  }
}

Scenario::~Scenario() = default;

void Scenario::apply_impairments() {
  const ImpairmentConfig& c = cfg_.impairments;
  if (!c.any()) return;
  std::uint64_t salt = 0;
  if (c.scope == "access" || c.scope == "all") {
    for (net::Medium* m : topo_.access_media) add_impairments(m, c, salt++);
  }
  if (c.scope == "fabric" || c.scope == "all") {
    for (net::Medium* m : topo_.fabric_media) add_impairments(m, c, salt++);
  }
}

ScenarioMetrics Scenario::run(int shards) {
  if (shards <= 0) shards = cfg_.run.shards;
  // Impairments BEFORE the executor: the partitioner must see them (an
  // impaired link is not cuttable — its RNG draws have to stay serial).
  apply_impairments();

  std::unique_ptr<net::ParallelExecutor> exec;
  if (shards > 1) exec = std::make_unique<net::ParallelExecutor>(net_, shards);
  // Workload timers go onto the (possibly rebound) per-shard queues, so
  // start() must come after the executor is attached.
  workload_->start();
  net_.run_until(cfg_.run.duration);

  ScenarioMetrics m;
  m.name = cfg_.name;
  m.topo_digest = topology_digest(net_);
  m.nodes = net_.nodes().size();
  m.hosts = topo_.hosts.size();
  m.routers = topo_.routers.size();
  m.media = net_.media().size();
  m.sim_time = net_.now();
  m.workload = workload_->stats();
  for (const auto& med : net_.media()) {
    m.delivered_packets += med->delivered_packets();
    m.delivered_bytes += med->delivered_bytes();
    m.dropped_queue += med->dropped_queue();
    m.dropped_loss += med->dropped_loss();
    m.dropped_down += med->dropped_down();
    m.dropped_unaddressed += med->dropped_unaddressed();
  }
  for (const auto& rt : monitors_) {
    runtime::RuntimeStats s = rt->stats();
    m.asp_handled += s.packets_handled;
    m.asp_sent += s.packets_sent;
  }
  auto add_cache = [&m](const planp::CacheStore::Stats& s) {
    m.cache_hits += s.hits;
    m.cache_misses += s.misses;
    m.cache_fills += s.fills;
    m.cache_evictions += s.evictions;
  };
  for (const auto& rt : cache_asps_) add_cache(rt->cache().stats());
  for (const auto& ec : cache_native_) add_cache(ec->store().stats());
  m.shards = exec ? exec->shard_count() : 1;
  m.islands = exec ? exec->island_count() : 0;
  if (exec) {
    m.windows = exec->stats().windows;
    m.cross_messages = exec->stats().cross_messages;
  }
  return m;
}

std::string ScenarioMetrics::to_json() const {
  std::string out = "{\n";
  out += "  \"scenario\": \"" + name + "\",\n";
  append_kv(out, "topo_digest", topo_digest);
  append_kv(out, "nodes", nodes);
  append_kv(out, "hosts", hosts);
  append_kv(out, "routers", routers);
  append_kv(out, "media", media);
  append_kv(out, "sim_time_ns", sim_time);
  append_kv(out, "requests", workload.requests);
  append_kv(out, "completed", workload.completed);
  append_kv(out, "timeouts", workload.timeouts);
  append_kv(out, "frames_rx", workload.frames_rx);
  append_kv(out, "latency_sum_ns", workload.latency_sum_ns);
  append_kv(out, "latency_max_ns", workload.latency_max_ns);
  append_kv(out, "latency_p50_ns", workload.latency_quantile_ns(0.50));
  append_kv(out, "latency_p99_ns", workload.latency_quantile_ns(0.99));
  append_kv(out, "origin_requests", workload.origin_requests);
  append_kv(out, "delivered_packets", delivered_packets);
  append_kv(out, "delivered_bytes", delivered_bytes);
  append_kv(out, "dropped_queue", dropped_queue);
  append_kv(out, "dropped_loss", dropped_loss);
  append_kv(out, "dropped_down", dropped_down);
  append_kv(out, "dropped_unaddressed", dropped_unaddressed);
  append_kv(out, "asp_handled", asp_handled);
  append_kv(out, "asp_sent", asp_sent);
  append_kv(out, "cache_hits", cache_hits);
  append_kv(out, "cache_misses", cache_misses);
  append_kv(out, "cache_fills", cache_fills);
  append_kv(out, "cache_evictions", cache_evictions, /*last=*/true);
  out += "}\n";
  return out;
}

}  // namespace asp::scenario
