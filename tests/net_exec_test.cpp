// ParallelExecutor: partitioning rules, window/lookahead math, cross-shard
// delivery, and the hard determinism contract (N shards == serial, exactly).
#include "net/exec.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"

namespace asp::net {
namespace {

// ---------------------------------------------------------------------- //
// Partitioning

TEST(ParallelExecutor, CleanDelayedLinkIsCut) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  ParallelExecutor exec(net, 2);
  EXPECT_EQ(exec.island_count(), 2);
  EXPECT_EQ(exec.shard_count(), 2);
  EXPECT_NE(exec.shard_of(a), exec.shard_of(b));
  EXPECT_EQ(exec.lookahead(), millis(1));
}

TEST(ParallelExecutor, ImpairedLinkIsNeverCut) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  PointToPointLink& l = net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));
  Impairments imp;
  imp.loss_rate = 0.1;
  l.set_impairments(imp);

  ParallelExecutor exec(net, 2);
  // The RNG draw order on an impaired link must stay serial, so the island
  // cannot be split no matter how many shards were requested.
  EXPECT_EQ(exec.island_count(), 1);
  EXPECT_EQ(exec.shard_count(), 1);
  EXPECT_EQ(exec.shard_of(a), exec.shard_of(b));
}

TEST(ParallelExecutor, ZeroDelayLinkIsNeverCut) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, /*delay=*/0);

  ParallelExecutor exec(net, 2);
  EXPECT_EQ(exec.island_count(), 1);  // zero lookahead: no window could make progress
}

TEST(ParallelExecutor, SegmentStationsShareAShard) {
  Network net;
  EthernetSegment& seg = net.segment("lan", 10e6);
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Node& c = net.add_node("c");
  net.attach(a, seg, ip("10.0.0.1"));
  net.attach(b, seg, ip("10.0.0.2"));
  net.attach(c, seg, ip("10.0.0.3"));

  ParallelExecutor exec(net, 3);
  EXPECT_EQ(exec.island_count(), 1);
  EXPECT_EQ(exec.shard_of(a), exec.shard_of(b));
  EXPECT_EQ(exec.shard_of(b), exec.shard_of(c));
}

TEST(ParallelExecutor, LookaheadIsMinCutDelay) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Node& c = net.add_node("c");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(5));
  net.link(b, ip("10.0.1.1"), c, ip("10.0.1.2"), 10e6, millis(2));

  ParallelExecutor exec(net, 3);
  EXPECT_EQ(exec.island_count(), 3);
  EXPECT_EQ(exec.lookahead(), millis(2));
}

TEST(ParallelExecutor, RequestingFewerShardsMergesIslands) {
  Network net;
  std::vector<Node*> nodes;
  for (int i = 0; i < 6; ++i) nodes.push_back(&net.add_node("n" + std::to_string(i)));
  for (int i = 0; i + 1 < 6; ++i)
    net.link(*nodes[static_cast<std::size_t>(i)], Ipv4Addr(10, 0, std::uint8_t(i), 1),
             *nodes[static_cast<std::size_t>(i + 1)], Ipv4Addr(10, 0, std::uint8_t(i), 2),
             10e6, millis(1));

  ParallelExecutor exec(net, 2);
  EXPECT_EQ(exec.island_count(), 6);
  EXPECT_EQ(exec.shard_count(), 2);
  int in0 = 0;
  for (Node* n : nodes)
    if (exec.shard_of(*n) == 0) ++in0;
  EXPECT_EQ(in0, 3) << "LPT on equal weights must balance 6 islands 3/3";
}

// ---------------------------------------------------------------------- //
// Execution

// Ping-pong over one cut link; returns the times at which each side saw a
// datagram, as observed from each node's own clock.
struct PingPong {
  Network net;
  Node* a;
  Node* b;
  std::vector<SimTime> a_times, b_times;
  std::unique_ptr<UdpSocket> sa, sb;

  explicit PingPong(int rounds) {
    a = &net.add_node("a");
    b = &net.add_node("b");
    net.link(*a, ip("10.0.0.1"), *b, ip("10.0.0.2"), 10e6, millis(1));
    a->routes().add_default(0);
    b->routes().add_default(0);
    sb = std::make_unique<UdpSocket>(*b, 7, [this](const Packet& p) {
      b_times.push_back(b->events().now());
      sb->send_to(p.ip.src, p.udp->sport, {4, 5, 6});
    });
    sa = std::make_unique<UdpSocket>(*a, 9000, [this, rounds](const Packet&) {
      a_times.push_back(a->events().now());
      if (static_cast<int>(a_times.size()) < rounds)
        sa->send_to(ip("10.0.0.2"), 7, {1, 2, 3});
    });
  }
  void kick() { sa->send_to(ip("10.0.0.2"), 7, {1, 2, 3}); }
};

TEST(ParallelExecutor, CrossShardPingPongMatchesSerial) {
  constexpr int kRounds = 50;

  PingPong serial(kRounds);
  serial.kick();
  serial.net.run();

  PingPong sharded(kRounds);
  ParallelExecutor exec(sharded.net, 2);
  ASSERT_EQ(exec.shard_count(), 2);
  sharded.kick();
  sharded.net.run();  // override routes into the windowed loop

  ASSERT_EQ(serial.a_times.size(), static_cast<std::size_t>(kRounds));
  EXPECT_EQ(serial.a_times, sharded.a_times);
  EXPECT_EQ(serial.b_times, sharded.b_times);
  EXPECT_EQ(exec.stats().cross_messages, static_cast<std::uint64_t>(2 * kRounds));
  EXPECT_GT(exec.stats().windows, 0u);
}

TEST(ParallelExecutor, RunUntilAdvancesEveryShardClock) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  ParallelExecutor exec(net, 2);
  net.run_until(seconds(3));
  EXPECT_EQ(a.events().now(), seconds(3));
  EXPECT_EQ(b.events().now(), seconds(3));
  EXPECT_EQ(net.now(), seconds(3));
}

TEST(ParallelExecutor, DetachRestoresSerialOperation) {
  PingPong pp(4);
  {
    ParallelExecutor exec(pp.net, 2);
    pp.kick();
    pp.net.run();
  }
  // Executor destroyed: queues rebound to the primary, overrides cleared.
  std::size_t before = pp.a_times.size();
  EXPECT_EQ(&pp.a->events(), &pp.net.events());
  EXPECT_EQ(&pp.b->events(), &pp.net.events());
  pp.kick();
  pp.net.run();
  EXPECT_GT(pp.a_times.size(), before);
}

TEST(ParallelExecutor, SingleShardFallbackStillRuns) {
  PingPong pp(3);
  ParallelExecutor exec(pp.net, 1);
  EXPECT_EQ(exec.shard_count(), 1);
  pp.kick();
  pp.net.run();
  EXPECT_EQ(pp.a_times.size(), 3u);
  EXPECT_EQ(exec.stats().cross_messages, 0u);
}

// A ring of routers joined by 1 µs links. Every node starts two tokens and
// forwards each token it receives to its successor until `stop`, recording
// (its own clock, token) per receive. At every shard count every link is
// cut, so W = 1 µs and the run crosses one window per hop.
struct TinyRing {
  static constexpr int kNodes = 8;
  Network net;
  std::vector<Node*> nodes;
  std::vector<std::unique_ptr<UdpSocket>> socks;
  std::vector<std::vector<std::pair<SimTime, std::uint8_t>>> rx;

  explicit TinyRing(SimTime stop) : rx(kNodes) {
    for (int i = 0; i < kNodes; ++i)
      nodes.push_back(&net.add_node("r" + std::to_string(i)));
    for (int i = 0; i < kNodes; ++i)
      net.link(*nodes[static_cast<std::size_t>(i)], link_addr(i, 1),
               *nodes[static_cast<std::size_t>((i + 1) % kNodes)], link_addr(i, 2), 10e9,
               micros(1));
    for (int i = 0; i < kNodes; ++i) {
      Node& me = *nodes[static_cast<std::size_t>(i)];
      socks.push_back(std::make_unique<UdpSocket>(me, 7, [this, &me, i, stop](const Packet& p) {
        rx[static_cast<std::size_t>(i)].emplace_back(me.events().now(), p.payload.bytes()[0]);
        if (me.events().now() < stop)
          socks[static_cast<std::size_t>(i)]->send_to(link_addr(i, 2), 7, p.payload.bytes());
      }));
    }
  }
  // Address of end `side` (1: node i, 2: its successor) of link i.
  static Ipv4Addr link_addr(int i, int side) {
    return Ipv4Addr(10, 0, static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(side));
  }
  void kick() {
    for (int i = 0; i < kNodes; ++i)
      for (std::uint8_t t = 0; t < 2; ++t)
        socks[static_cast<std::size_t>(i)]->send_to(
            link_addr(i, 2), 7, {static_cast<std::uint8_t>(2 * i + t)});
  }
};

TEST(ParallelExecutor, TinyWindowStress) {
  const SimTime stop = millis(12);
  TinyRing serial(stop);
  serial.kick();
  serial.net.run();
  ASSERT_GT(serial.rx[0].size(), 10000u);

  std::uint64_t windows = 0;
  for (int shards : {2, 4, 8}) {
    TinyRing ring(stop);
    ParallelExecutor exec(ring.net, shards);
    ASSERT_EQ(exec.shard_count(), shards);
    ASSERT_EQ(exec.lookahead(), micros(1));
    ring.kick();  // setup-time sends: merged when the run starts
    ring.net.run();
    EXPECT_EQ(ring.rx, serial.rx) << shards << " shards";
    EXPECT_GE(exec.stats().windows, 10000u) << shards << " shards";
    // The window sequence depends only on global event times and W.
    if (windows == 0) windows = exec.stats().windows;
    EXPECT_EQ(exec.stats().windows, windows) << shards << " shards";
  }
}

TEST(ParallelExecutor, DisjointIslandsRunInOneWindow) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");  // no media at all: two isolated islands
  int a_fired = 0, b_fired = 0;
  ParallelExecutor exec(net, 2);
  ASSERT_EQ(exec.shard_count(), 2);
  a.events().schedule_at(seconds(1), [&] { ++a_fired; });
  b.events().schedule_at(seconds(2), [&] { ++b_fired; });
  net.run_until(seconds(5));
  EXPECT_EQ(a_fired, 1);
  EXPECT_EQ(b_fired, 1);
}

}  // namespace
}  // namespace asp::net
