#include "net/medium.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/exec.hpp"
#include "net/network.hpp"
#include "net/node.hpp"

namespace asp::net {
namespace {

// Collects UDP payload deliveries on a node.
struct Sink {
  explicit Sink(Node& n, std::uint16_t port = 7)
      : sock(n, port, [this](const Packet& p) {
          packets.push_back(p);
          times.push_back(n_->events().now());
        }),
        n_(&n) {}
  UdpSocket sock;
  std::vector<Packet> packets;
  std::vector<SimTime> times;
  Node* n_;
};

Packet udp_to(Node& from, Ipv4Addr dst, std::size_t payload_bytes,
              std::uint16_t dport = 7) {
  return Packet::make_udp(from.addr(), dst, 9999, dport,
                          std::vector<std::uint8_t>(payload_bytes));
}

TEST(PointToPointLink, DeliversWithSerializationAndPropagationDelay) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  // 10 Mb/s, 1 ms propagation.
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));
  Sink sink(b);

  // 1222-byte payload + 28 header = 1250 bytes = 1 ms at 10 Mb/s.
  a.send_ip(udp_to(a, b.addr(), 1222));
  net.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.times[0], millis(2));  // 1 ms serialize + 1 ms propagate
}

TEST(PointToPointLink, BackToBackPacketsQueueBehindEachOther) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));
  Sink sink(b);

  a.send_ip(udp_to(a, b.addr(), 1222));  // 1250B -> 1ms
  a.send_ip(udp_to(a, b.addr(), 1222));
  net.run();
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.times[0], millis(2));
  EXPECT_EQ(sink.times[1], millis(3));  // queued one serialization time later
}

TEST(PointToPointLink, IsFullDuplex) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));
  Sink sink_a(a);
  Sink sink_b(b);

  a.send_ip(udp_to(a, b.addr(), 1222));
  b.send_ip(udp_to(b, a.addr(), 1222));
  net.run();
  // Both arrive at 2 ms: directions do not contend.
  ASSERT_EQ(sink_a.times.size(), 1u);
  ASSERT_EQ(sink_b.times.size(), 1u);
  EXPECT_EQ(sink_a.times[0], millis(2));
  EXPECT_EQ(sink_b.times[0], millis(2));
}

TEST(PointToPointLink, DropsWhenQueueOverflows) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  // Tiny queue: 2000 bytes of backlog allowed.
  auto& l = net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 1e6, millis(1), 2000);
  Sink sink(b);

  for (int i = 0; i < 10; ++i) a.send_ip(udp_to(a, b.addr(), 1000));
  net.run();
  EXPECT_GT(l.dropped_packets(), 0u);
  EXPECT_LT(sink.packets.size(), 10u);
  EXPECT_EQ(sink.packets.size() + l.dropped_packets(), 10u);
}

TEST(PointToPointLink, MetersStartOnFirstRead) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  PointToPointLink& link =
      net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  // 5 Mb/s for a second: 1250-byte frames every 2 ms.
  for (int i = 0; i < 500; ++i) {
    net.events().schedule_at(millis(2) * i,
                             [&] { a.send_ip(udp_to(a, b.addr(), 1222)); });
  }
  net.run_until(millis(499));
  EXPECT_EQ(link.utilization(), 0.0)
      << "traffic carried before the first read was metered";
  net.run_until(millis(999));
  EXPECT_NEAR(link.utilization(), 0.5, 0.05);
}

// A cut link armed between run_until slices: the first read happens at a
// barrier, each direction then records on its sender's shard, and every
// reading equals the serial run's.
TEST(PointToPointLink, CutLinkMetersArmBetweenSlicesAndMatchSerial) {
  auto readings = [](int shards) {
    Network net;
    Node& a = net.add_node("a");
    Node& b = net.add_node("b");
    PointToPointLink& link =
        net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));
    std::unique_ptr<ParallelExecutor> exec;
    if (shards > 1) {
      exec = std::make_unique<ParallelExecutor>(net, shards);
      EXPECT_NE(exec->shard_of(a), exec->shard_of(b)) << "the link is not cut";
    }
    // a offers 5 Mb/s and b 2.5 Mb/s, each from its own shard's queue.
    for (int i = 0; i < 250; ++i) {
      a.events().schedule_at(millis(2) * i,
                             [&] { a.send_ip(udp_to(a, b.addr(), 1222)); });
      if (i % 2 == 0) {
        b.events().schedule_at(millis(2) * i,
                               [&] { b.send_ip(udp_to(b, a.addr(), 1222)); });
      }
    }
    std::vector<double> out;
    for (SimTime t : {millis(101), millis(301), millis(501)}) {
      net.run_until(t);
      out.push_back(link.utilization());
    }
    return out;
  };
  const std::vector<double> serial = readings(1);
  EXPECT_EQ(serial[0], 0.0);
  EXPECT_NEAR(serial[2], 0.75, 0.05) << "both directions must record";
  EXPECT_EQ(readings(2), serial);
}

TEST(EthernetSegment, DeliversToAddressedStationOnly) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Node& c = net.add_node("c");
  auto& seg = net.segment("lan", 10e6);
  net.attach(a, seg, ip("192.168.1.1"));
  net.attach(b, seg, ip("192.168.1.2"));
  net.attach(c, seg, ip("192.168.1.3"));
  Sink sink_b(b);
  Sink sink_c(c);

  a.send_ip(udp_to(a, b.addr(), 100));
  net.run();
  EXPECT_EQ(sink_b.packets.size(), 1u);
  EXPECT_EQ(sink_c.packets.size(), 0u);
}

TEST(EthernetSegment, SharedMediumContends) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Node& c = net.add_node("c");
  auto& seg = net.segment("lan", 10e6, 0);  // zero propagation for exactness
  net.attach(a, seg, ip("192.168.1.1"));
  net.attach(b, seg, ip("192.168.1.2"));
  net.attach(c, seg, ip("192.168.1.3"));
  Sink sink_c(c);

  // Both a and b send 1250-byte packets (1 ms each) to c at t=0; the second
  // must wait for the first: arrivals at 1 ms and 2 ms.
  a.send_ip(udp_to(a, c.addr(), 1222));
  b.send_ip(udp_to(b, c.addr(), 1222));
  net.run();
  ASSERT_EQ(sink_c.times.size(), 2u);
  EXPECT_EQ(sink_c.times[0], millis(1));
  EXPECT_EQ(sink_c.times[1], millis(2));
}

TEST(EthernetSegment, MulticastReachesAllGroupMembers) {
  Network net;
  Node& src = net.add_node("src");
  Node& m1 = net.add_node("m1");
  Node& m2 = net.add_node("m2");
  Node& out = net.add_node("out");
  auto& seg = net.segment("lan", 10e6);
  net.attach(src, seg, ip("192.168.1.1"));
  net.attach(m1, seg, ip("192.168.1.2"));
  net.attach(m2, seg, ip("192.168.1.3"));
  net.attach(out, seg, ip("192.168.1.4"));

  Ipv4Addr group = ip("224.1.2.3");
  m1.join_group(group);
  m2.join_group(group);
  Sink s1(m1);
  Sink s2(m2);
  Sink s3(out);

  src.send_ip(udp_to(src, group, 100));
  net.run();
  EXPECT_EQ(s1.packets.size(), 1u);
  EXPECT_EQ(s2.packets.size(), 1u);
  EXPECT_EQ(s3.packets.size(), 0u);  // attached but not joined
}

TEST(EthernetSegment, PromiscuousInterfaceSeesForeignUnicast) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Node& spy = net.add_node("spy");
  auto& seg = net.segment("lan", 10e6);
  net.attach(a, seg, ip("192.168.1.1"));
  net.attach(b, seg, ip("192.168.1.2"));
  Interface& spy_if = net.attach(spy, seg, ip("192.168.1.3"));
  spy_if.set_promiscuous(true);

  int spied = 0;
  spy.set_ip_hook([&](Packet& p, Interface&) {
    if (!spy.owns(p.ip.dst)) ++spied;
    return false;  // observe only
  });
  Sink sink_b(b);

  a.send_ip(udp_to(a, b.addr(), 100));
  net.run();
  EXPECT_EQ(sink_b.packets.size(), 1u);  // normal delivery unaffected
  EXPECT_EQ(spied, 1);
}

TEST(EthernetSegment, UnmatchedUnicastGoesToGateway) {
  Network net;
  Node& a = net.add_node("a");
  Node& r = net.add_router("r");
  auto& seg = net.segment("lan", 10e6);
  net.attach(a, seg, ip("192.168.1.1"));
  net.attach(r, seg, ip("192.168.1.254"));
  Node& far = net.add_node("far");
  net.link(r, ip("10.0.0.1"), far, ip("10.0.0.2"), 10e6, millis(1));

  a.routes().add_default(0, ip("192.168.1.254"));
  r.routes().add(ip("10.0.0.0"), 24, 1);
  Sink sink(far);

  a.send_ip(udp_to(a, far.addr(), 100));
  net.run();
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(EthernetSegment, UtilizationTracksOfferedLoad) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  auto& seg = net.segment("lan", 10e6, 0);
  net.attach(a, seg, ip("192.168.1.1"));
  net.attach(b, seg, ip("192.168.1.2"));
  Sink sink(b);

  // Send 5 Mb/s for half a second: 625 kB in 0.5s, as 1250B packets every 2ms.
  for (int i = 0; i < 250; ++i) {
    net.events().schedule_at(millis(2) * i,
                             [&] { a.send_ip(udp_to(a, b.addr(), 1222)); });
  }
  net.run_until(millis(500));
  EXPECT_NEAR(seg.utilization(), 0.5, 0.05);
}

}  // namespace
}  // namespace asp::net
