// Extension tests: alternative load-balancing strategies and fault tolerance
// (the paper's §5 future work for the HTTP cluster).
#include <gtest/gtest.h>

#include "apps/asp_files.hpp"
#include "apps/http/experiment.hpp"
#include "net/network.hpp"
#include "planp/analysis.hpp"
#include "planp/parser.hpp"

namespace asp::apps {
namespace {

using asp::net::ip;
using asp::net::seconds;

TEST(HttpStrategies, HashGatewayTypechecks) {
  auto r = planp::analyze(planp::typecheck(planp::parse(asp_source(
      "http_gateway_hash", {{"server0", ip("10.0.2.1")}, {"server1", ip("10.0.2.2")}}))));
  EXPECT_TRUE(r.guaranteed_delivery) << r.delivery_detail;
  EXPECT_TRUE(r.linear_duplication) << r.duplication_detail;
}

TEST(HttpStrategies, FailoverGatewayTypechecks) {
  auto r = planp::analyze(planp::typecheck(planp::parse(asp_source(
      "http_gateway_failover", {{"server0", ip("10.0.2.1")}, {"server1", ip("10.0.2.2")}}))));
  EXPECT_TRUE(r.linear_duplication) << r.duplication_detail;
}

TEST(HttpStrategies, HashStrategyBalancesAndCompletes) {
  HttpExperiment::Options opts;
  opts.config = HttpConfig::kAspGateway;
  opts.strategy = GatewayStrategy::kHash;
  opts.client_machines = 4;
  opts.processes_per_machine = 2;
  opts.trace_accesses = 2000;
  HttpExperiment exp(opts);
  auto r = exp.run(8.0);
  EXPECT_GT(r.completed, 200u);
  EXPECT_GT(exp.servers()[0]->requests_served(), 0u);
  EXPECT_GT(exp.servers()[1]->requests_served(), 0u);
}

TEST(HttpStrategies, StrategiesAreComparableAtSaturation) {
  // The point of the exercise in the paper: swap the ASP, compare strategies.
  double rps[2];
  int i = 0;
  for (GatewayStrategy s : {GatewayStrategy::kModulo, GatewayStrategy::kHash}) {
    HttpExperiment::Options opts;
    opts.config = HttpConfig::kAspGateway;
    opts.strategy = s;
    opts.client_machines = 6;
    opts.processes_per_machine = 4;
    opts.trace_accesses = 20'000;
    HttpExperiment exp(opts);
    rps[i++] = exp.run(10.0).requests_per_sec;
  }
  EXPECT_NEAR(rps[0], rps[1], 0.2 * rps[0]);
}

TEST(HttpFailover, TrafficMovesToSurvivingServer) {
  HttpExperiment::Options opts;
  opts.config = HttpConfig::kAspGateway;
  opts.strategy = GatewayStrategy::kFailover;
  opts.client_machines = 2;
  opts.processes_per_machine = 2;
  opts.trace_accesses = 5000;
  HttpExperiment exp(opts);

  // At t=4 s server 0 crashes and the administrator marks it down.
  exp.network().events().schedule_at(seconds(4.0), [&] {
    exp.kill_server(0);
    exp.mark_server(0, /*down=*/true);
  });

  auto r = exp.run(12.0);
  std::uint64_t s0_before = exp.servers()[0]->requests_served();
  std::uint64_t s1 = exp.servers()[1]->requests_served();
  EXPECT_GT(s0_before, 0u);  // both served before the crash
  EXPECT_GT(s1, s0_before);  // the survivor carried the rest of the run
  // Service continued: far more requests completed than fit in 4 s.
  EXPECT_GT(r.completed, 2u * s0_before);
}

TEST(HttpFailover, RecoveryRestoresBalancing) {
  HttpExperiment::Options opts;
  opts.config = HttpConfig::kAspGateway;
  opts.strategy = GatewayStrategy::kFailover;
  opts.client_machines = 2;
  opts.processes_per_machine = 2;
  opts.trace_accesses = 5000;
  HttpExperiment exp(opts);

  // Down for the middle third of the run, then back up.
  exp.network().events().schedule_at(seconds(3.0),
                                     [&] { exp.mark_server(0, true); });
  std::uint64_t served_at_recovery = 0;
  exp.network().events().schedule_at(seconds(6.0), [&] {
    exp.mark_server(0, false);
    served_at_recovery = exp.servers()[0]->requests_served();
  });
  exp.run(12.0);
  // New connections reached server 0 again after recovery.
  EXPECT_GT(exp.servers()[0]->requests_served(), served_at_recovery);
}

}  // namespace
}  // namespace asp::apps
