#include "apps/http/experiment.hpp"

#include <gtest/gtest.h>

#include "apps/asp_files.hpp"
#include "net/network.hpp"
#include "planp/analysis.hpp"
#include "planp/parser.hpp"

namespace asp::apps {
namespace {

using asp::net::ip;

TEST(HttpTrace, HasRequestedLengthAndPlausibleShape) {
  auto trace = make_trace(10'000, 500);
  ASSERT_EQ(trace.size(), 10'000u);
  // Zipf: the most popular file should appear far more often than average.
  std::map<std::string, int> counts;
  std::uint64_t total = 0;
  for (const auto& e : trace) {
    ++counts[e.path];
    total += e.size;
  }
  int max_count = 0;
  for (const auto& [p, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 500);            // head file ~ 1/H(500) ~ 15% of accesses
  EXPECT_GT(counts.size(), 250u);       // long tail is present
  double mean = static_cast<double>(total) / 10'000.0;
  EXPECT_GT(mean, 3'000);
  EXPECT_LT(mean, 40'000);
}

TEST(HttpTrace, PathEncodesSize) {
  EXPECT_EQ(size_from_path(trace_path(17, 8192)), 8192u);
  EXPECT_EQ(size_from_path("/weird"), 1024u);
}

TEST(HttpTrace, DeterministicForSeed) {
  auto a = make_trace(1000, 100, 7);
  auto b = make_trace(1000, 100, 7);
  auto c = make_trace(1000, 100, 8);
  EXPECT_EQ(a[0].path, b[0].path);
  EXPECT_EQ(a[999].path, b[999].path);
  bool any_diff = false;
  for (std::size_t i = 0; i < 1000; ++i) any_diff |= a[i].path != c[i].path;
  EXPECT_TRUE(any_diff);
}

TEST(HttpServerModel, ServesQueuedRequestsThroughChildPool) {
  asp::net::Network net;
  asp::net::Node& server = net.add_node("server");
  asp::net::Node& client = net.add_node("client");
  net.link(client, ip("10.0.0.1"), server, ip("10.0.0.2"), 100e6, asp::net::millis(1));

  HttpServer::Options opts;
  opts.children = 2;
  opts.fixed_overhead_ms = 10;
  HttpServer srv(server, opts);
  HttpClientPool pool(client, server.addr(), make_trace(100, 10), 6);
  pool.start();
  net.run_until(asp::net::seconds(5));
  EXPECT_GT(pool.completed(), 100u);
  EXPECT_EQ(pool.failed(), 0u);
  EXPECT_GE(srv.requests_served(), pool.completed());  // a couple may be in flight
  // 2 children at ~11 ms a request cap the rate around 180/s.
  EXPECT_LT(pool.completed(), 5 * 200u);
}

TEST(HttpGatewayAsp, IsRejectedByTheGateButLoadsAuthenticated) {
  // The two-server gateway is a "legitimate protocol that can not be proven
  // to terminate" (paper §2.1): the conservative analysis sees the
  // destination alternating between two literals. It must be rejected by
  // the gate and loadable via the privileged path.
  auto report = planp::analyze(planp::typecheck(
      planp::parse(asp_source("http_gateway", {{"server0", ip("10.0.2.1")},
                                               {"server1", ip("10.0.2.2")}}))));
  EXPECT_TRUE(report.local_termination);
  EXPECT_FALSE(report.global_termination);
  EXPECT_TRUE(report.linear_duplication) << report.duplication_detail;
  EXPECT_TRUE(report.guaranteed_delivery) << report.delivery_detail;
}

struct HttpThroughput {
  double single, asp, builtin, disjoint;
};

HttpThroughput measure(double secs, int machines, int procs) {
  HttpThroughput out{};
  for (HttpConfig cfg : {HttpConfig::kSingleServer, HttpConfig::kAspGateway,
                         HttpConfig::kBuiltinGateway, HttpConfig::kDisjoint}) {
    HttpExperiment::Options opts;
    opts.config = cfg;
    opts.client_machines = machines;
    opts.processes_per_machine = procs;
    opts.trace_accesses = 20'000;
    HttpExperiment exp(opts);
    double rps = exp.run(secs).requests_per_sec;
    switch (cfg) {
      case HttpConfig::kSingleServer: out.single = rps; break;
      case HttpConfig::kAspGateway: out.asp = rps; break;
      case HttpConfig::kBuiltinGateway: out.builtin = rps; break;
      case HttpConfig::kDisjoint: out.disjoint = rps; break;
    }
  }
  return out;
}

TEST(HttpCluster, Figure8ShapeHolds) {
  // Saturating load: the Figure 8 claims.
  HttpThroughput t = measure(20.0, 8, 4);

  // Both servers beat one server substantially (paper: 1.75x).
  EXPECT_GT(t.asp, 1.5 * t.single);
  // The ASP gateway matches the built-in C gateway (paper: "little or no
  // difference").
  EXPECT_NEAR(t.asp, t.builtin, 0.08 * t.builtin);
  // The gateway is a contention point: cluster <= disjoint servers, roughly
  // the paper's 85%.
  EXPECT_LT(t.asp, t.disjoint);
  EXPECT_GT(t.asp, 0.7 * t.disjoint);
}

TEST(HttpCluster, GatewayPreservesRequestIntegrity) {
  HttpExperiment::Options opts;
  opts.config = HttpConfig::kAspGateway;
  opts.client_machines = 2;
  opts.processes_per_machine = 2;
  opts.trace_accesses = 1000;
  HttpExperiment exp(opts);
  auto r = exp.run(5.0);
  EXPECT_GT(r.completed, 50u);
  // Both servers participated.
  EXPECT_GT(exp.servers()[0]->requests_served(), 0u);
  EXPECT_GT(exp.servers()[1]->requests_served(), 0u);
  // Everything completed end-to-end arrived byte-correct (completion implies
  // full response via the virtual address).
  std::uint64_t total_served =
      exp.servers()[0]->requests_served() + exp.servers()[1]->requests_served();
  EXPECT_GE(total_served, r.completed);
}

TEST(HttpCluster, LightLoadServedWithoutFailures) {
  HttpExperiment::Options opts;
  opts.config = HttpConfig::kAspGateway;
  opts.client_machines = 1;
  opts.processes_per_machine = 1;
  opts.trace_accesses = 500;
  HttpExperiment exp(opts);
  auto r = exp.run(10.0);
  EXPECT_GT(r.completed, 100u);
  EXPECT_EQ(r.failed, 0u);
}

}  // namespace
}  // namespace asp::apps
