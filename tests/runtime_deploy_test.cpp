#include "runtime/deploy.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace asp::runtime {
namespace {

using asp::net::ip;
using asp::net::millis;
using asp::net::Network;
using asp::net::Node;
using asp::net::seconds;

struct DeployRig {
  DeployRig() {
    admin = &net.add_node("admin");
    router = &net.add_router("router");
    net.link(*admin, ip("10.0.1.1"), *router, ip("10.0.1.254"), 10e6, millis(1));
    admin->routes().add_default(0);
    rt = std::make_unique<AspRuntime>(*router);
    server = std::make_unique<DeployServer>(*rt);
    deployer = std::make_unique<Deployer>(*admin);
  }

  DeployResult deploy(const std::string& source, Deployer::Options opts = {}) {
    DeployResult out;
    bool fired = false;
    deployer->deploy(router->addr(), source,
                     [&](const DeployResult& r) {
                       out = r;
                       fired = true;
                     },
                     opts);
    net.run_until(net.now() + seconds(5));
    EXPECT_TRUE(fired) << "no reply from deployment daemon";
    return out;
  }

  Network net;
  Node* admin;
  Node* router;
  std::unique_ptr<AspRuntime> rt;
  std::unique_ptr<DeployServer> server;
  std::unique_ptr<Deployer> deployer;
};

const char* kGoodAsp =
    "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n"
    "  (OnRemote(network, p); (ps + 1, ss))";

TEST(Deploy, InstallsVerifiedProtocolRemotely) {
  DeployRig rig;
  DeployResult r = rig.deploy(kGoodAsp);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(rig.rt->installed());
  EXPECT_EQ(rig.server->deployments(), 1);
  // The reply parses into structured fields: channel count, codegen time, no
  // error text.
  EXPECT_EQ(r.channels, 1);
  EXPECT_GT(r.codegen_us, 0.0);
  EXPECT_TRUE(r.error.empty()) << r.error;
}

TEST(Deploy, DeployedProtocolActuallyRuns) {
  DeployRig rig;
  ASSERT_TRUE(rig.deploy(kGoodAsp).ok);
  // Ping a third node through the router: the deployed ASP forwards it.
  Node& far = rig.net.add_node("far");
  rig.net.link(*rig.router, ip("10.0.2.254"), far, ip("10.0.2.1"), 10e6, millis(1));
  far.routes().add_default(0);
  int got = 0;
  asp::net::UdpSocket sink(far, 7, [&](const asp::net::Packet&) { ++got; });
  asp::net::UdpSocket src(*rig.admin, 9999, nullptr);
  src.send_to(far.addr(), 7, asp::net::bytes_of("x"));
  rig.net.run_until(rig.net.now() + seconds(1));
  EXPECT_EQ(got, 1);
  EXPECT_GT(rig.rt->stats().packets_handled, 0u);
}

TEST(Deploy, SyntaxErrorIsReportedNotInstalled) {
  DeployRig rig;
  DeployResult r = rig.deploy("channel oops(");
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.channels, 0);
  EXPECT_FALSE(rig.rt->installed());
  EXPECT_EQ(rig.server->rejections(), 1);
}

TEST(Deploy, GateRejectsUnverifiableWithoutAuthentication) {
  DeployRig rig;
  const char* ping_pong = R"(
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  if ipDst(#1 p) = 10.0.0.1 then
    (OnRemote(network, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p)); (ps, ss))
  else
    (OnRemote(network, (ipDestSet(#1 p, 10.0.0.1), #2 p, #3 p)); (ps, ss))
)";
  DeployResult r = rig.deploy(ping_pong);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("verification"), std::string::npos);

  // The paper's escape hatch: authenticated users may deploy it anyway.
  Deployer::Options opts;
  opts.authenticated = true;
  DeployResult r2 = rig.deploy(ping_pong, opts);
  EXPECT_TRUE(r2.ok) << r2.error;
  EXPECT_TRUE(rig.rt->installed());
}

TEST(Deploy, RedeploymentReplacesProtocol) {
  DeployRig rig;
  ASSERT_TRUE(rig.deploy(kGoodAsp).ok);
  const char* v2 =
      "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n"
      "  (println(\"v2\"); OnRemote(network, p); (ps + 1, ss))";
  ASSERT_TRUE(rig.deploy(v2).ok);
  EXPECT_EQ(rig.server->deployments(), 2);
  // Traffic now hits v2.
  Node& far = rig.net.add_node("far");
  rig.net.link(*rig.router, ip("10.0.2.254"), far, ip("10.0.2.1"), 10e6, millis(1));
  asp::net::UdpSocket sink(far, 7, [](const asp::net::Packet&) {});
  asp::net::UdpSocket src(*rig.admin, 9999, nullptr);
  src.send_to(far.addr(), 7, asp::net::bytes_of("x"));
  rig.net.run_until(rig.net.now() + seconds(1));
  EXPECT_EQ(rig.rt->log(), "v2\n");
}

TEST(Deploy, EngineSelectionIsHonoured) {
  DeployRig rig;
  Deployer::Options opts;
  opts.engine = planp::EngineKind::kInterp;
  ASSERT_TRUE(rig.deploy(kGoodAsp, opts).ok);
  EXPECT_STREQ(rig.rt->engine().engine_name(), "interp");
}

TEST(Deploy, WrongWireVersionIsRefused) {
  DeployRig rig;
  // Speak a future protocol version at the daemon by hand: it must answer
  // with a clear bad-version error, not try to parse the body.
  std::string reply;
  auto conn = rig.admin->tcp().connect(rig.router->addr(), kDeployPort);
  conn->on_established([&] { conn->send(std::string("DEPLOY/9 jit 0 3\nfoo")); });
  conn->on_data([&](const std::vector<std::uint8_t>& d) {
    reply.append(d.begin(), d.end());
  });
  rig.net.run_until(rig.net.now() + seconds(2));
  EXPECT_EQ(reply.rfind("ERR bad-version", 0), 0u) << reply;
  EXPECT_FALSE(rig.rt->installed());
  EXPECT_EQ(rig.server->rejections(), 1);
  // The structured parser classifies it as a failure with the reason text.
  DeployResult parsed = DeployResult::from_reply(reply.substr(0, reply.find('\n')));
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("bad-version"), std::string::npos);
}

TEST(Deploy, SignedSourceLengthIsRefused) {
  // `istream >> std::size_t` reads "-1" as 2^64-1 without failing, so the
  // daemon once accepted this header and then buffered every later byte
  // waiting for a body that never ends. The length must be refused up front.
  DeployRig rig;
  std::string reply;
  auto conn = rig.admin->tcp().connect(rig.router->addr(), kDeployPort);
  conn->on_established([&] {
    conn->send(std::string("DEPLOY/1 jit 0 -1 0123456789abcdef\nfoo"));
  });
  conn->on_data([&](const std::vector<std::uint8_t>& d) {
    reply.append(d.begin(), d.end());
  });
  rig.net.run_until(rig.net.now() + seconds(2));
  EXPECT_EQ(reply.rfind("ERR malformed header", 0), 0u) << reply;
  EXPECT_FALSE(rig.rt->installed());
  EXPECT_EQ(rig.server->rejections(), 1);
}

TEST(Deploy, OversizedSourceLengthIsRefused) {
  // 2^64-1 is a valid unsigned length, and a daemon that accepted it would
  // buffer every later byte of the connection. Refuse it before any body.
  DeployRig rig;
  std::string reply;
  auto conn = rig.admin->tcp().connect(rig.router->addr(), kDeployPort);
  conn->on_established([&] {
    conn->send(
        std::string("DEPLOY/1 jit 0 18446744073709551615 0123456789abcdef\nfoo"));
  });
  conn->on_data([&](const std::vector<std::uint8_t>& d) {
    reply.append(d.begin(), d.end());
  });
  rig.net.run_until(rig.net.now() + seconds(2));
  EXPECT_EQ(reply, "ERR too-large\n");
  EXPECT_FALSE(rig.rt->installed());
  EXPECT_EQ(rig.server->rejections(), 1);
  EXPECT_EQ(rig.server->deployments(), 0);
}

TEST(Deploy, UnterminatedHeaderIsRefused) {
  // A header line that never ends: once it outgrows any well-formed header
  // the daemon answers instead of buffering the rest of the stream.
  DeployRig rig;
  std::string reply;
  auto conn = rig.admin->tcp().connect(rig.router->addr(), kDeployPort);
  conn->on_established([&] {
    conn->send("DEPLOY/1 jit 0 " + std::string(4 * kDeployMaxHeaderBytes, '7'));
  });
  conn->on_data([&](const std::vector<std::uint8_t>& d) {
    reply.append(d.begin(), d.end());
  });
  rig.net.run_until(rig.net.now() + seconds(2));
  EXPECT_EQ(reply, "ERR malformed header\n");
  EXPECT_FALSE(rig.rt->installed());
  EXPECT_EQ(rig.server->rejections(), 1);
  EXPECT_EQ(rig.server->deployments(), 0);
}

TEST(Deploy, UnversionedLegacyHeaderIsRefused) {
  DeployRig rig;
  std::string reply;
  auto conn = rig.admin->tcp().connect(rig.router->addr(), kDeployPort);
  conn->on_established([&] { conn->send(std::string("DEPLOY jit 0 3\nfoo")); });
  conn->on_data([&](const std::vector<std::uint8_t>& d) {
    reply.append(d.begin(), d.end());
  });
  rig.net.run_until(rig.net.now() + seconds(2));
  EXPECT_EQ(reply.rfind("ERR bad-version", 0), 0u) << reply;
  EXPECT_FALSE(rig.rt->installed());
}

TEST(Deploy, ReplyParserHandlesAllShapes) {
  DeployResult ok = DeployResult::from_reply("OK 3 412.5");
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.channels, 3);
  EXPECT_DOUBLE_EQ(ok.codegen_us, 412.5);
  EXPECT_TRUE(ok.error.empty());

  DeployResult err = DeployResult::from_reply("ERR verification: boom");
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.error, "verification: boom");

  DeployResult garbage = DeployResult::from_reply("HELLO");
  EXPECT_FALSE(garbage.ok);
  EXPECT_NE(garbage.error.find("unparseable"), std::string::npos);

  DeployResult truncated = DeployResult::from_reply("OK");
  EXPECT_FALSE(truncated.ok);
  EXPECT_EQ(truncated.channels, 0);
}

// The header's checksum is the FNV-1a 64 that deploy.hpp and DESIGN §6d
// document, so a client written from the docs agrees with the daemon. The
// expected values are FNV-1a 64's published test vectors.
TEST(Deploy, ChecksumIsStandardFnv1a64) {
  EXPECT_EQ(deploy_checksum(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(deploy_checksum("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(deploy_checksum("foobar"), 0x85944171f73967e8ull);
}

TEST(Deploy, ServerCountsEachOutcomeOnce) {
  // The daemon's accessors are the one count of its outcomes: an install,
  // a retry of the installed program (answered from the dedup cache) and a
  // rejection each move exactly one of them.
  DeployRig rig;
  DeployResult first = rig.deploy(kGoodAsp);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.attempts, 1);
  EXPECT_EQ(rig.server->deployments(), 1);
  ASSERT_TRUE(rig.deploy(kGoodAsp).ok);
  EXPECT_EQ(rig.server->deployments(), 1);
  EXPECT_EQ(rig.server->dedups(), 1);
  EXPECT_FALSE(rig.deploy("channel network(").ok);
  EXPECT_EQ(rig.server->rejections(), 1);
  EXPECT_EQ(rig.server->deployments(), 1);
  EXPECT_EQ(rig.server->dedups(), 1);
}

}  // namespace
}  // namespace asp::runtime
