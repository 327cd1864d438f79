// The clustered HTTP server experiment of paper §3.2 (Figure 8).
#pragma once

#include <memory>
#include <vector>

#include "apps/http/http.hpp"
#include "net/network.hpp"
#include "runtime/engine.hpp"

namespace asp::apps {

/// The four measured configurations.
enum class HttpConfig {
  kSingleServer,   // curve (a): one physical server, no gateway logic
  kAspGateway,     // curve (b): 2 servers behind the PLAN-P gateway ASP
  kBuiltinGateway, // curve (c): 2 servers behind the built-in C gateway
  kDisjoint,       // 2 servers, clients split between them, no gateway
};

const char* http_config_name(HttpConfig c);

/// Load-balancing strategy for the ASP gateway (paper §3.2/§5: strategies are
/// evaluated by swapping the gateway ASP).
enum class GatewayStrategy {
  kModulo,    // figure 2: modulo on the number of requests, sticky table
  kHash,      // stateless source hashing
  kFailover,  // modulo-style with an administrative down/up control channel
};

struct HttpRunResult {
  double duration_sec = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double requests_per_sec = 0;
  double mean_latency_ms = 0;
};

/// Topology: N client machines, each on its own 10 Mb/s link to the gateway
/// machine, which fronts a 100 Mb/s server segment with up to two servers.
/// The gateway machine forwards every packet with a fixed per-packet CPU cost
/// (calibrated to the paper's Sun Ultra-1 170 MHz forwarding path) — this is
/// the "contention point" that caps the cluster at ~85% of two free-standing
/// servers.
class HttpExperiment {
 public:
  struct Options {
    HttpConfig config = HttpConfig::kAspGateway;
    int client_machines = 4;
    int processes_per_machine = 4;
    std::size_t trace_accesses = 80'000;
    double gateway_cost_us = 80.0;  // per-packet forwarding cost
    GatewayStrategy strategy = GatewayStrategy::kModulo;
    HttpServer::Options server;
  };

  explicit HttpExperiment(Options opts);
  ~HttpExperiment();

  HttpRunResult run(double duration_sec);

  asp::net::Network& network() { return net_; }
  asp::runtime::AspRuntime* gateway_runtime() { return gw_rt_.get(); }
  const std::vector<std::unique_ptr<HttpServer>>& servers() const { return servers_; }

  /// Crashes a physical server (it stops accepting connections).
  void kill_server(int idx);
  /// Sends the administrative "DOWN/UP <idx>" datagram to the failover
  /// gateway (only meaningful with GatewayStrategy::kFailover).
  void mark_server(int idx, bool down);

 private:
  void build();
  void install_asp_gateway();
  void install_builtin_gateway();

  Options opts_;
  asp::net::Network net_;
  asp::net::Node* gateway_ = nullptr;
  std::vector<asp::net::Node*> server_nodes_;
  std::vector<asp::net::Node*> client_nodes_;
  std::vector<std::unique_ptr<HttpServer>> servers_;
  std::vector<std::unique_ptr<HttpClientPool>> pools_;
  std::unique_ptr<asp::runtime::AspRuntime> gw_rt_;

  // Gateway CPU model: packets queue behind a single forwarding core.
  asp::net::SimTime gw_busy_until_ = 0;
  std::uint64_t gw_packets_ = 0;

  bool delay_and_forward();
};

}  // namespace asp::apps
