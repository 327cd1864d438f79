#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/exec.hpp"
#include "net/network.hpp"
#include "net/tcp.hpp"
#include "mem/pool.hpp"

namespace asp::runtime {
namespace {

using asp::net::ip;
using asp::net::millis;
using asp::net::Network;
using asp::net::Node;
using asp::net::Packet;
using asp::net::ParallelExecutor;
using asp::net::seconds;
using asp::net::UdpSocket;

TEST(AspRuntime, PassThroughWhenNothingMatches) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  AspRuntime rt(b);
  rt.install("channel network(ps : unit, ss : unit, p : ip*tcp*blob) is "
             "(deliver(p); (ps, ss))");
  int got = 0;
  UdpSocket sock(b, 7, [&](const Packet&) { ++got; });
  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
  net.run();
  // The TCP-only protocol ignores UDP: default IP behaviour delivers it.
  EXPECT_EQ(got, 1);
  EXPECT_EQ(rt.stats().packets_passed, 1u);
  EXPECT_EQ(rt.stats().packets_handled, 0u);
}

TEST(AspRuntime, ChannelConsumesAndRedirects) {
  // A router ASP that redirects TCP traffic for 10.0.2.1 to 10.0.3.1.
  Network net;
  Node& a = net.add_node("a");
  Node& r = net.add_router("r");
  Node& b1 = net.add_node("b1");
  Node& b2 = net.add_node("b2");
  net.link(a, ip("10.0.1.1"), r, ip("10.0.1.254"), 10e6, millis(1));
  net.link(r, ip("10.0.2.254"), b1, ip("10.0.2.1"), 10e6, millis(1));
  net.link(r, ip("10.0.3.254"), b2, ip("10.0.3.1"), 10e6, millis(1));
  a.routes().add_default(0);
  b1.routes().add_default(0);
  b2.routes().add_default(0);

  AspRuntime rt(r);
  rt.install(R"(
channel network(ps : unit, ss : unit, p : ip*tcp*blob) is
  if ipDst(#1 p) = 10.0.2.1 then
    (OnRemote(network, (ipDestSet(#1 p, 10.0.3.1), #2 p, #3 p)); (ps, ss))
  else
    (OnRemote(network, p); (ps, ss))
)");

  std::string got1, got2;
  b1.tcp().listen(80, [&](std::shared_ptr<asp::net::TcpConnection> c) {
    c->on_data([&](const std::vector<std::uint8_t>& d) { got1 += asp::net::string_of(d); });
  });
  b2.tcp().listen(80, [&](std::shared_ptr<asp::net::TcpConnection> c) {
    c->on_data([&](const std::vector<std::uint8_t>& d) { got2 += asp::net::string_of(d); });
  });
  // Client must talk to b2 even though it addresses b1... but replies come
  // from b2's address, so connect to b2 via the rewritten path is one-way.
  // For this unit test just verify raw TCP SYN redirection happened.
  auto c = a.tcp().connect(ip("10.0.2.1"), 80);
  net.run_until(seconds(1));
  EXPECT_GT(rt.stats().packets_handled, 0u);
  // b2 received the SYN (a connection attempt was registered there).
  EXPECT_GE(b2.tcp().open_connections(), 1u);
  EXPECT_EQ(b1.tcp().open_connections(), 0u);
}

TEST(AspRuntime, StatePersistsAcrossPackets) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  AspRuntime rt(b);
  rt.install(R"(
channel network(ps : int, ss : int, p : ip*udp*blob) initstate 0 is
  (println(ss); deliver(p); (ps, ss + 1))
)");
  UdpSocket sock(b, 7, [](const Packet&) {});
  UdpSocket src(a, 9999, nullptr);
  for (int i = 0; i < 3; ++i) src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
  net.run();
  EXPECT_EQ(rt.log(), "0\n1\n2\n");
  EXPECT_EQ(rt.stats().packets_handled, 3u);
}

TEST(AspRuntime, SharedProtocolStateAcrossOverloads) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  AspRuntime rt(b);
  rt.install(R"(
channel network(ps : int, ss : unit, p : ip*udp*char*int) is
  (println(ps); deliver(p); (ps + 1, ss))
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (println(ps); deliver(p); (ps + 1, ss))
)");
  UdpSocket sock(b, 7, [](const Packet&) {});
  UdpSocket src(a, 9999, nullptr);
  // A 5-byte payload decodes as char*int AND as blob: both overloads run and
  // share the protocol state.
  src.send_to(b.addr(), 7, {'A', 0, 0, 0, 1});
  net.run();
  EXPECT_EQ(rt.log(), "0\n1\n");
}

TEST(AspRuntime, MismatchedProtocolStateTypesRejected) {
  Network net;
  Node& n = net.add_node("n");
  n.add_interface(ip("10.0.0.1"));
  AspRuntime rt(n);
  EXPECT_THROW(rt.install(R"(
channel network(ps : int, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))
channel network(ps : bool, ss : unit, p : ip*tcp*blob) is (deliver(p); (ps, ss))
)"),
               planp::PlanPError);
  EXPECT_FALSE(rt.installed());
}

TEST(AspRuntime, UserChannelDispatchByTag) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));
  a.routes().add_default(0);

  // Node a rewraps UDP packets onto the user channel "mychan"; node b's
  // protocol handles "mychan" packets only.
  AspRuntime rt_a(a);
  rt_a.install(R"(
channel mychan(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  (OnRemote(mychan, p); (ps, ss))
)");
  AspRuntime rt_b(b);
  rt_b.install(R"(
channel mychan(ps : unit, ss : unit, p : ip*udp*blob) is
  (println("tagged"); deliver(p); (ps, ss))
)");

  int got = 0;
  UdpSocket sock(b, 7, [&](const Packet&) { ++got; });
  // Inject an outgoing packet through a's ASP (send-path processing).
  Packet p = Packet::make_udp(a.addr(), b.addr(), 9999, 7, {1, 2, 3});
  EXPECT_TRUE(rt_a.inject(p));
  net.run();
  EXPECT_EQ(rt_b.log(), "tagged\n");
  EXPECT_EQ(got, 1);
}

TEST(AspRuntime, UnhandledChannelExceptionConsumesPacketAndLogs) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  AspRuntime rt(b);
  planp::Protocol::Options opts;  // delivery analysis would flag this; gate
  opts.require_verified = true;   // still accepts (delivery is advisory)
  rt.install(
      "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n"
      "  (raise \"Boom\"; (ps, ss))",
      opts);
  int got = 0;
  UdpSocket sock(b, 7, [&](const Packet&) { ++got; });
  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
  net.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(rt.stats().runtime_errors, 1u);
  EXPECT_NE(rt.log().find("Boom"), std::string::npos);
}

TEST(AspRuntime, LinkLoadReflectsMonitoredMedium) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  auto& seg = net.segment("lan", 10e6, 0);
  net.attach(a, seg, ip("192.168.1.1"));
  net.attach(b, seg, ip("192.168.1.2"));

  AspRuntime rt(a);
  rt.set_monitored_medium(&seg);
  rt.install("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
             "(println(linkLoad()); deliver(p); (ps, ss))");

  // ~50% load for half a second, then probe.
  UdpSocket sink(b, 9, nullptr);
  UdpSocket srcb(b, 8888, nullptr);
  for (int i = 0; i < 250; ++i) {
    net.events().schedule_at(millis(2) * i, [&] {
      srcb.send_to(ip("192.168.1.9"), 9, std::vector<std::uint8_t>(1222));
    });
  }
  net.events().schedule_at(millis(400), [&] {
    srcb.send_to(a.addr(), 7, asp::net::bytes_of("probe"));
  });
  UdpSocket sock_a(a, 7, [](const Packet&) {});
  net.run_until(millis(600));
  // linkLoad printed something close to 50.
  int load = std::stoi(rt.log());
  EXPECT_NEAR(load, 50, 15);
}

TEST(AspRuntime, LinkLoadOnPointToPointLinkMetersFromFirstRead) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  // No monitored medium set: b reads its last interface's medium, the link.
  AspRuntime rt(b);
  rt.install("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
             "(println(linkLoad()); deliver(p); (ps, ss))");

  // ~50% load: a 1250-byte frame every 2 ms for half a second.
  UdpSocket sink(b, 7, [](const Packet&) {});
  UdpSocket src(a, 9999, nullptr);
  for (int i = 0; i < 250; ++i) {
    net.events().schedule_at(millis(2) * i, [&] {
      src.send_to(b.addr(), 7, std::vector<std::uint8_t>(1222));
    });
  }
  net.run_until(millis(600));
  std::vector<int> loads;
  std::istringstream log(rt.log());
  for (std::string line; std::getline(log, line);) loads.push_back(std::stoi(line));
  ASSERT_EQ(loads.size(), 250u);
  EXPECT_EQ(loads.front(), 0) << "the first read must arm the meters, not read them";
  for (std::size_t i = 1; i < loads.size(); ++i) {
    EXPECT_GT(loads[i], 0) << "packet " << i << " read an unarmed link";
  }
  EXPECT_NEAR(loads.back(), 50, 5);
}

TEST(AspRuntime, TtlGuardStopsRunawayForwarding) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));
  a.routes().add_default(0);
  b.routes().add_default(0);

  // Pathological ping-pong, loaded unverified: the runtime TTL guard bounds it.
  planp::Protocol::Options opts;
  opts.require_verified = false;
  auto asp_src = R"(
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  if ipDst(#1 p) = 10.0.0.1 then
    (OnRemote(network, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p)); (ps, ss))
  else
    (OnRemote(network, (ipDestSet(#1 p, 10.0.0.1), #2 p, #3 p)); (ps, ss))
)";
  AspRuntime rt_a(a);
  rt_a.install(asp_src, opts);
  AspRuntime rt_b(b);
  rt_b.install(asp_src, opts);

  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
  net.run_until(seconds(10));
  EXPECT_TRUE(net.events().empty());  // the storm died out
  EXPECT_LE(rt_a.stats().packets_sent + rt_b.stats().packets_sent, 70u);  // bounded by TTL
}

TEST(AspRuntime, UninstallRestoresDefaultBehaviour) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  AspRuntime rt(b);
  rt.install("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
             "(drop(); (ps, ss))");
  int got = 0;
  UdpSocket sock(b, 7, [&](const Packet&) { ++got; });
  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
  net.run();
  EXPECT_EQ(got, 0);  // ASP dropped it

  rt.uninstall();
  src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
  net.run();
  EXPECT_EQ(got, 1);  // standard IP behaviour restored
}

TEST(AspRuntime, EngineChoiceDoesNotChangeBehaviour) {
  for (planp::EngineKind kind : {planp::EngineKind::kInterp, planp::EngineKind::kJit}) {
    Network net;
    Node& a = net.add_node("a");
    Node& b = net.add_node("b");
    net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));
    AspRuntime rt(b);
    planp::Protocol::Options opts;
    opts.engine = kind;
    rt.install(R"(
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (println(ps * 2); deliver(p); (ps + 1, ss))
)",
               opts);
    UdpSocket sock(b, 7, [](const Packet&) {});
    UdpSocket src(a, 9999, nullptr);
    for (int i = 0; i < 3; ++i) src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
    net.run();
    EXPECT_EQ(rt.log(), "0\n2\n4\n") << "engine " << static_cast<int>(kind);
  }
}

// A channel run pins nothing: once inject returns, the caller's reference is
// the payload's only one, on either engine. That is also what lets the
// interpreter's decode refill its scratch tuple in place: from the second
// packet on, a JIT run acquires nothing from any pool, and an interpreter run
// only the (ps, ss) tuple its body evaluates to.
TEST(AspRuntime, ChannelRunKeepsNoReferenceToItsPacket) {
  for (planp::EngineKind kind : {planp::EngineKind::kInterp, planp::EngineKind::kJit}) {
    Network net;
    Node& n = net.add_node("n");
    AspRuntime rt(n);
    planp::Protocol::Options opts;
    opts.engine = kind;
    opts.require_verified = false;  // consumes without sending
    rt.install(R"(
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  let val b : blob = #3 p in (ps + blobLen(b) + blobInt(b, 0), ss) end
)",
               opts);
    Packet p = Packet::make_udp(ip("10.0.0.1"), ip("10.0.0.2"), 9, 7,
                                std::vector<std::uint8_t>(64, 1));
    ASSERT_EQ(p.payload.buffer().use_count(), 1);
    std::uint64_t acquired = 0;
    for (int i = 0; i < 3; ++i) {
      const mem::PoolTotals before = mem::total_pool_stats();
      ASSERT_TRUE(rt.inject(p));
      const mem::PoolTotals after = mem::total_pool_stats();
      EXPECT_EQ(p.payload.buffer().use_count(), 1)
          << "engine " << rt.engine().engine_name() << ", packet " << i;
      if (i > 0) acquired += (after.hits + after.misses) - (before.hits + before.misses);
    }
    EXPECT_EQ(acquired, kind == planp::EngineKind::kInterp ? 2u : 0u)
        << "engine " << rt.engine().engine_name();
    EXPECT_EQ(rt.stats().packets_handled, 3u);
  }
}

// A channel whose body ends in `raise` leaves both states as they were: the
// runtime assigns the new states only when a run returns.
TEST(AspRuntime, TailRaiseKeepsBothStates) {
  for (planp::EngineKind kind : {planp::EngineKind::kInterp, planp::EngineKind::kJit}) {
    Network net;
    Node& n = net.add_node("n");
    AspRuntime rt(n);
    planp::Protocol::Options opts;
    opts.engine = kind;
    opts.require_verified = false;  // raises instead of sending
    rt.install(R"(
channel network(ps : int, ss : int, p : ip*udp*blob) initstate 10 is
  (println(ps); println(ss); if ps >= 2 then raise "Stop" else (ps + 1, ss + 10))
)",
               opts);
    Packet p = Packet::make_udp(ip("10.0.0.1"), ip("10.0.0.2"), 9, 7, {1});
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(rt.inject(p));
    const std::string raised = "[runtime] unhandled exception 'Stop' in channel 'network'\n";
    EXPECT_EQ(rt.log(), "0\n10\n1\n20\n2\n30\n" + raised + "2\n30\n" + raised)
        << "engine " << rt.engine().engine_name();
    EXPECT_EQ(rt.stats().runtime_errors, 2u);
  }
}

TEST(AspRuntime, MetricsReachGlobalRegistry) {
  // stats() reports per-instance deltas, but the same numbers accumulate in
  // the process-wide registry under node/<name>/asp/* (plus per-channel
  // dispatch counts and a handling-latency histogram).
  obs::MetricsRegistry& reg = obs::registry();
  std::uint64_t handled0 = reg.counter("node/mreg/asp/packets_handled").value();
  std::uint64_t chan0 =
      reg.counter("node/mreg/asp/channel/network/handled").value();
  std::uint64_t lat0 = reg.histogram("node/mreg/asp/handle_us").count();

  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("mreg");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  AspRuntime rt(b);
  rt.install("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
             "(deliver(p); (ps, ss))");
  UdpSocket sock(b, 7, [](const Packet&) {});
  UdpSocket src(a, 9999, nullptr);
  for (int i = 0; i < 3; ++i) src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
  net.run();

  EXPECT_EQ(rt.stats().packets_handled, 3u);
  EXPECT_EQ(reg.counter("node/mreg/asp/packets_handled").value(), handled0 + 3);
  EXPECT_EQ(reg.counter("node/mreg/asp/channel/network/handled").value(),
            chan0 + 3);
  // Handler latency is sampled 1-in-16 dispatches (first always): 3 packets
  // through a fresh runtime record exactly one observation.
  EXPECT_EQ(reg.histogram("node/mreg/asp/handle_us").count(), lat0 + 1);
}

// --- one compiled protocol shared by many nodes ---------------------------

// Per-node state a shared program must not share: a global read from
// thisHost(), a hash table held in a global, the protocol and channel
// states, the counters and the cache. Its constants include pairs (the
// initstate and the comparison) and a tuple holding a tuple, used as a
// hash-table key, which every engine instance reads at once.
const char* kSharedAsp = R"(
val me : host = thisHost()
val seen : ((int*int*int)*int, int) hash_table = mkTable(16)
channel network(ps : int, ss : int*int, p : ip*udp*blob) initstate (0, 0) is
  let val n : int = tableGetDefault(seen, ((1, 2, 3), 4), 0) + 1
  in
    (tableSet(seen, ((1, 2, 3), 4), n);
     cacheStore(n, #3 p);
     println(hostToString(me) ^ " " ^ intToString(n) ^ " " ^ intToString(ps) ^
             " " ^ intToString(#1 ss));
     OnRemote(network, p);
     (ps + 1, if ss = (0, 0) then (0, 1) else (#1 ss + 1, #2 ss)))
  end
)";

// Group i: client 10.i.1.1 -- router 10.i.1.254 / 10.i.2.254 -- server
// 10.i.2.1. Every link has a delay, so a ParallelExecutor may put each node
// on its own shard.
struct SharedGroup {
  Node* client;
  Node* router;
  Node* server;
};

std::vector<SharedGroup> build_groups(Network& net, int n) {
  std::vector<SharedGroup> out;
  for (int i = 0; i < n; ++i) {
    const std::string id = std::to_string(i);
    SharedGroup g{&net.add_node("c" + id), &net.add_router("r" + id),
                  &net.add_node("s" + id)};
    const std::string pre = "10." + id + ".";
    net.link(*g.client, ip(pre + "1.1"), *g.router, ip(pre + "1.254"), 10e6, millis(1));
    net.link(*g.router, ip(pre + "2.254"), *g.server, ip(pre + "2.1"), 10e6, millis(1));
    g.client->routes().add_default(0);
    g.server->routes().add_default(0);
    out.push_back(g);
  }
  return out;
}

planp::Protocol::Options engine_options(planp::EngineKind kind) {
  planp::Protocol::Options opts;
  opts.engine = kind;
  return opts;
}

TEST(RuntimeSharedProtocol, NodesKeepSeparateStateOnOneProtocol) {
  for (planp::EngineKind kind : {planp::EngineKind::kInterp, planp::EngineKind::kJit}) {
    SCOPED_TRACE(kind == planp::EngineKind::kJit ? "jit" : "interp");
    Network net;
    std::vector<SharedGroup> g = build_groups(net, 2);
    const auto proto = planp::Protocol::compile(kSharedAsp, engine_options(kind));
    AspRuntime r0(*g[0].router);
    AspRuntime r1(*g[1].router);
    EXPECT_EQ(&r0.install(proto), proto.get());
    EXPECT_EQ(&r1.install(proto), proto.get());
    EXPECT_NE(&r0.engine(), &r1.engine());

    int got0 = 0, got1 = 0;
    UdpSocket sink0(*g[0].server, 7, [&](const Packet&) { ++got0; });
    UdpSocket sink1(*g[1].server, 7, [&](const Packet&) { ++got1; });
    UdpSocket src0(*g[0].client, 9999, nullptr);
    UdpSocket src1(*g[1].client, 9999, nullptr);
    for (int i = 0; i < 3; ++i) src0.send_to(g[0].server->addr(), 7, asp::net::bytes_of("x"));
    src1.send_to(g[1].server->addr(), 7, asp::net::bytes_of("y"));
    net.run();

    EXPECT_EQ(r0.log(), "10.0.1.254 1 0 0\n10.0.1.254 2 1 0\n10.0.1.254 3 2 1\n");
    EXPECT_EQ(r1.log(), "10.1.1.254 1 0 0\n");
    EXPECT_EQ(r0.stats().packets_handled, 3u);
    EXPECT_EQ(r1.stats().packets_handled, 1u);
    EXPECT_EQ(r0.cache().size(), 3u);
    EXPECT_EQ(r1.cache().size(), 1u);
    EXPECT_EQ(got0, 3);
    EXPECT_EQ(got1, 1);

    // Uninstalling one node leaves the other running.
    r0.uninstall();
    r0.clear_log();
    src0.send_to(g[0].server->addr(), 7, asp::net::bytes_of("x"));
    src1.send_to(g[1].server->addr(), 7, asp::net::bytes_of("y"));
    net.run();
    EXPECT_EQ(r0.log(), "");
    EXPECT_EQ(r0.stats().packets_handled, 3u);
    EXPECT_EQ(got0, 4) << "standard IP forwards while uninstalled";
    EXPECT_EQ(r1.log(), "10.1.1.254 1 0 0\n10.1.1.254 2 1 0\n");

    // Reinstalling starts that node over and leaves the other's state alone.
    r0.install(proto);
    src0.send_to(g[0].server->addr(), 7, asp::net::bytes_of("x"));
    src1.send_to(g[1].server->addr(), 7, asp::net::bytes_of("y"));
    net.run();
    EXPECT_EQ(r0.log(), "10.0.1.254 1 0 0\n");
    EXPECT_EQ(r1.log(), "10.1.1.254 1 0 0\n10.1.1.254 2 1 0\n10.1.1.254 3 2 1\n");
    EXPECT_EQ(r1.stats().packets_handled, 3u);
  }
}

// Everything a run of the shared protocol leaves behind, per group.
struct SharedOutcome {
  std::vector<std::string> logs;
  std::vector<std::uint64_t> handled, sent, fills;
  std::vector<int> delivered;
  bool operator==(const SharedOutcome&) const = default;
};

SharedOutcome run_shared(planp::EngineKind kind, int shards) {
  constexpr int kGroups = 4;
  constexpr int kPackets = 60;
  Network net;
  std::vector<SharedGroup> g = build_groups(net, kGroups);
  const auto proto = planp::Protocol::compile(kSharedAsp, engine_options(kind));
  std::vector<std::unique_ptr<AspRuntime>> rts;
  for (const SharedGroup& grp : g) {
    rts.push_back(std::make_unique<AspRuntime>(*grp.router));
    rts.back()->install(proto);
  }
  std::unique_ptr<ParallelExecutor> exec;
  if (shards > 1) {
    exec = std::make_unique<ParallelExecutor>(net, shards);
    std::vector<int> router_shards;
    for (const SharedGroup& grp : g) router_shards.push_back(exec->shard_of(*grp.router));
    std::sort(router_shards.begin(), router_shards.end());
    EXPECT_GT(std::unique(router_shards.begin(), router_shards.end()) - router_shards.begin(), 1)
        << "the routers must run on more than one shard";
  }
  SharedOutcome out;
  out.delivered.assign(kGroups, 0);
  std::vector<std::unique_ptr<UdpSocket>> socks;
  for (int i = 0; i < kGroups; ++i) {
    socks.push_back(std::make_unique<UdpSocket>(
        *g[static_cast<std::size_t>(i)].server, 7,
        [&out, i](const Packet&) { ++out.delivered[static_cast<std::size_t>(i)]; }));
  }
  for (int i = 0; i < kGroups; ++i) {
    const SharedGroup& grp = g[static_cast<std::size_t>(i)];
    socks.push_back(std::make_unique<UdpSocket>(*grp.client, 9999, nullptr));
    for (int k = 0; k < kPackets; ++k) {
      socks.back()->send_to(grp.server->addr(), 7,
                            asp::net::bytes_of("packet " + std::to_string(k)));
    }
  }
  net.run_until(seconds(1));
  for (const auto& rt : rts) {
    out.logs.push_back(rt->log());
    out.handled.push_back(rt->stats().packets_handled);
    out.sent.push_back(rt->stats().packets_sent);
    out.fills.push_back(rt->cache().stats().fills);
  }
  return out;
}

TEST(RuntimeSharedProtocol, ShardedRunMatchesSerial) {
  for (planp::EngineKind kind : {planp::EngineKind::kInterp, planp::EngineKind::kJit}) {
    SCOPED_TRACE(kind == planp::EngineKind::kJit ? "jit" : "interp");
    const SharedOutcome serial = run_shared(kind, 1);
    for (std::uint64_t h : serial.handled) EXPECT_EQ(h, 60u);
    for (int d : serial.delivered) EXPECT_EQ(d, 60);
    EXPECT_EQ(run_shared(kind, 4), serial);
  }
}

}  // namespace
}  // namespace asp::runtime
