// Deployment under network faults: the control network between management
// station and daemon is exactly the degraded network ASPs exist for, so the
// DEPLOY path must converge through loss, partitions and corruption — with
// the client callback firing exactly once and the daemon never
// double-installing.
#include <cstdio>

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "runtime/deploy.hpp"

namespace asp::runtime {
namespace {

using asp::net::Impairments;
using asp::net::ip;
using asp::net::millis;
using asp::net::Network;
using asp::net::Node;
using asp::net::seconds;

const char* kGoodAsp =
    "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n"
    "  (OnRemote(network, p); (ps + 1, ss))";

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct ChaosRig {
  explicit ChaosRig(asp::net::SimTime link_delay = millis(1)) {
    admin = &net.add_node("admin");
    router = &net.add_router("router");
    link = &net.link(*admin, ip("10.0.1.1"), *router, ip("10.0.1.254"), 10e6,
                     link_delay);
    admin->routes().add_default(0);
    rt = std::make_unique<AspRuntime>(*router);
    server = std::make_unique<DeployServer>(*rt);
    deployer = std::make_unique<Deployer>(*admin);
  }

  Network net;
  Node* admin;
  Node* router;
  asp::net::PointToPointLink* link;
  std::unique_ptr<AspRuntime> rt;
  std::unique_ptr<DeployServer> server;
  std::unique_ptr<Deployer> deployer;
};

TEST(DeployChaos, ConvergesOverLossyControlLink) {
  ChaosRig rig;
  Impairments imp;
  imp.loss_rate = 0.10;
  imp.seed = 11;
  rig.link->set_impairments(imp);

  int fired = 0;
  DeployResult out;
  rig.deployer->deploy(rig.router->addr(), kGoodAsp, [&](const DeployResult& r) {
    out = r;
    ++fired;
  });
  rig.net.run_until(rig.net.now() + seconds(30));

  EXPECT_EQ(fired, 1) << "callback must fire exactly once";
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(rig.rt->installed());
  EXPECT_EQ(rig.server->deployments(), 1) << "retries must not double-install";
}

TEST(DeployChaos, AcceptanceLossPlusPartitionTwoTargets) {
  // The issue's acceptance bar: 10% loss and one 2 s partition on the control
  // link; the Deployer converges on every node, no double-install, and each
  // callback fires exactly once.
  Network net;
  Node& admin = net.add_node("admin");
  Node& r1 = net.add_router("r1");
  Node& r2 = net.add_router("r2");
  auto& l1 = net.link(admin, ip("10.0.1.1"), r1, ip("10.0.1.254"), 10e6, millis(1));
  auto& l2 = net.link(admin, ip("10.0.2.1"), r2, ip("10.0.2.254"), 10e6, millis(1));
  admin.routes().add(ip("10.0.1.0"), 24, 0);
  admin.routes().add(ip("10.0.2.0"), 24, 1);
  // TCP sources from the admin's primary address (10.0.1.1), so r2 needs a
  // return route off its own subnet.
  r1.routes().add_default(0);
  r2.routes().add_default(0);

  Impairments imp;
  imp.loss_rate = 0.10;
  imp.seed = 21;
  l1.set_impairments(imp);
  imp.seed = 22;
  l2.set_impairments(imp);
  l1.schedule_outage(millis(500), millis(2500));  // one 2 s partition

  AspRuntime rt1(r1), rt2(r2);
  DeployServer s1(rt1), s2(rt2);
  Deployer deployer(admin);

  int fired1 = 0, fired2 = 0;
  DeployResult out1, out2;
  Deployer::Options opts;
  opts.max_attempts = 8;
  deployer.deploy(r1.addr(), kGoodAsp, [&](const DeployResult& r) { out1 = r; ++fired1; },
                  opts);
  deployer.deploy(r2.addr(), kGoodAsp, [&](const DeployResult& r) { out2 = r; ++fired2; },
                  opts);
  net.run_until(net.now() + seconds(60));

  EXPECT_EQ(fired1, 1);
  EXPECT_EQ(fired2, 1);
  EXPECT_TRUE(out1.ok) << out1.error;
  EXPECT_TRUE(out2.ok) << out2.error;
  EXPECT_TRUE(rt1.installed());
  EXPECT_TRUE(rt2.installed());
  EXPECT_EQ(s1.deployments(), 1) << "no double-install through the partition";
  EXPECT_EQ(s2.deployments(), 1);
}

TEST(DeployChaos, PartitionedDaemonFailsTerminallyExactlyOnce) {
  ChaosRig rig;
  rig.link->set_link_up(false);  // daemon unreachable for the whole run

  int fired = 0;
  DeployResult out;
  Deployer::Options opts;
  opts.attempt_timeout = millis(500);
  opts.max_attempts = 3;
  opts.initial_backoff = millis(100);
  rig.deployer->deploy(rig.router->addr(), kGoodAsp, [&](const DeployResult& r) {
    out = r;
    ++fired;
  }, opts);
  rig.net.run_until(rig.net.now() + seconds(30));

  EXPECT_EQ(fired, 1) << "terminal error must fire exactly once, never zero";
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_NE(out.error.find("timeout"), std::string::npos) << out.error;
  EXPECT_NE(out.error.find("gave up after 3 attempts"), std::string::npos) << out.error;
  EXPECT_FALSE(rig.rt->installed());
}

TEST(DeployChaos, CorruptBodyIsRejectedByChecksum) {
  // Hand-deliver a well-formed header whose checksum does not match the body:
  // the daemon must refuse it instead of handing the verifier a silently
  // different program.
  ChaosRig rig;
  std::string reply;
  auto conn = rig.admin->tcp().connect(rig.router->addr(), kDeployPort);
  conn->on_established([&] {
    conn->send(std::string("DEPLOY/1 jit 0 3 0123456789abcdef\nfoo"));
  });
  conn->on_data([&](const std::vector<std::uint8_t>& d) {
    reply.append(d.begin(), d.end());
  });
  rig.net.run_until(rig.net.now() + seconds(2));

  EXPECT_EQ(reply.rfind("ERR bad-checksum", 0), 0u) << reply;
  EXPECT_FALSE(rig.rt->installed());
  EXPECT_EQ(rig.server->rejections(), 1);
}

TEST(DeployChaos, UnknownEngineTokenIsRefused) {
  // A typo'd engine used to fall through silently to the JIT; now it is a
  // loud wire error. "bytecode" named an engine that no longer exists.
  for (const std::string token : {"jitt", "bytecode"}) {
    ChaosRig rig;
    std::string body = "foo";
    std::string reply;
    auto conn = rig.admin->tcp().connect(rig.router->addr(), kDeployPort);
    conn->on_established([&] {
      conn->send("DEPLOY/1 " + token + " 0 3 " + hex64(deploy_checksum(body)) + "\n" +
                 body);
    });
    conn->on_data([&](const std::vector<std::uint8_t>& d) {
      reply.append(d.begin(), d.end());
    });
    rig.net.run_until(rig.net.now() + seconds(2));

    EXPECT_EQ(reply.rfind("ERR bad-engine " + token, 0), 0u) << reply;
    EXPECT_FALSE(rig.rt->installed());
    EXPECT_EQ(rig.server->rejections(), 1);
  }
}

TEST(DeployChaos, FragmentedDeployWithTrailingBytesInstallsOnce) {
  // The header, body and some trailing garbage arrive in separate segments;
  // the daemon must assemble them, install exactly once, and ignore the
  // trailing bytes rather than re-entering the install path.
  ChaosRig rig;
  std::string body(kGoodAsp);
  std::string header = "DEPLOY/1 jit 0 " + std::to_string(body.size()) + " " +
                       hex64(deploy_checksum(body)) + "\n";
  std::string reply;
  auto conn = rig.admin->tcp().connect(rig.router->addr(), kDeployPort);
  conn->on_established([&] {
    conn->send(header.substr(0, 9));
    conn->send(header.substr(9));
    conn->send(body.substr(0, 17));
    conn->send(body.substr(17));
    conn->send(std::string("trailing junk that must not re-trigger install"));
  });
  conn->on_data([&](const std::vector<std::uint8_t>& d) {
    reply.append(d.begin(), d.end());
  });
  rig.net.run_until(rig.net.now() + seconds(2));

  EXPECT_EQ(reply.rfind("OK ", 0), 0u) << reply;
  EXPECT_EQ(reply.find('\n'), reply.size() - 1) << "exactly one reply line: " << reply;
  EXPECT_TRUE(rig.rt->installed());
  EXPECT_EQ(rig.server->deployments(), 1);
  EXPECT_EQ(rig.server->rejections(), 0);
}

TEST(DeployChaos, LostReplyRetryIsIdempotent) {
  // The daemon installs and replies OK, but a partition eats the reply (and
  // outlives TCP's retransmission budget). The client's retry reaches a
  // daemon that already installed this exact program: it must be answered
  // from the content-hash cache, not reinstalled.
  ChaosRig rig(millis(10));
  // Timeline: SYN 0->10ms, SYN-ACK 20ms, DEPLOY body 20->30ms, install at
  // 30 ms, OK in flight 30->40ms. Down at 35 ms kills the reply mid-flight;
  // up at 3 s is past both TCP's ~2.4 s retransmission give-up and the
  // client's per-attempt deadline, so only a fresh attempt can get through.
  rig.link->schedule_outage(millis(35), seconds(3));

  int fired = 0;
  DeployResult out;
  Deployer::Options opts;
  opts.attempt_timeout = seconds(1);
  opts.max_attempts = 6;
  rig.deployer->deploy(rig.router->addr(), kGoodAsp, [&](const DeployResult& r) {
    out = r;
    ++fired;
  }, opts);
  rig.net.run_until(rig.net.now() + seconds(30));

  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_GT(out.attempts, 1) << "the lost reply must have forced a retry";
  EXPECT_TRUE(rig.rt->installed());
  EXPECT_EQ(rig.server->deployments(), 1) << "retry must dedup, not reinstall";
  EXPECT_GE(rig.server->dedups(), 1);
}

TEST(DeployChaos, CorruptionHealsAndConverges) {
  // Every frame is corrupted until the link heals at t=1s. Each corrupted
  // exchange (garbled header, garbled body failing its checksum, or a
  // garbled reply) classifies as transient, so the client keeps retrying and
  // converges after the heal.
  ChaosRig rig;
  Impairments imp;
  imp.corrupt_rate = 1.0;
  imp.seed = 31;
  rig.link->set_impairments(imp);
  rig.net.events().schedule_at(seconds(1),
                               [&] { rig.link->impairments().corrupt_rate = 0; });

  int fired = 0;
  DeployResult out;
  Deployer::Options opts;
  opts.max_attempts = 8;
  rig.deployer->deploy(rig.router->addr(), kGoodAsp, [&](const DeployResult& r) {
    out = r;
    ++fired;
  }, opts);
  rig.net.run_until(rig.net.now() + seconds(60));

  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_GT(out.attempts, 1);
  EXPECT_TRUE(rig.rt->installed());
  EXPECT_EQ(rig.server->deployments(), 1);
}

}  // namespace
}  // namespace asp::runtime
