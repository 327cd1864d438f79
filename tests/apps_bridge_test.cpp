// The PLAN-P learning Ethernet bridge (cited claim of paper §1/§2.4).
#include <gtest/gtest.h>

#include "apps/asp_files.hpp"
#include "net/network.hpp"
#include "planp/analysis.hpp"
#include "planp/parser.hpp"
#include "runtime/engine.hpp"

namespace asp::apps {
namespace {

using asp::net::ip;
using asp::net::Network;
using asp::net::Node;
using asp::net::Packet;
using asp::net::UdpSocket;

TEST(BridgeAsp, PassesAllFourAnalyses) {
  auto r = planp::analyze(planp::typecheck(planp::parse(asp_source("bridge"))));
  EXPECT_TRUE(r.local_termination);
  EXPECT_TRUE(r.global_termination) << r.global_termination_detail;
  EXPECT_TRUE(r.linear_duplication) << r.duplication_detail;
  // drop() is intentional bridge filtering: delivery is (correctly) advisory.
  EXPECT_FALSE(r.guaranteed_delivery);
}

// Two segments joined by a bridge machine; all hosts share one subnet.
struct BridgeRig {
  BridgeRig() {
    bridge = &net.add_node("bridge");
    seg_a = &net.segment("segA", 10e6, asp::net::micros(10));
    seg_b = &net.segment("segB", 10e6, asp::net::micros(10));
    asp::net::Interface& ia = net.attach(*bridge, *seg_a, ip("10.0.0.254"));
    asp::net::Interface& ib = net.attach(*bridge, *seg_b, ip("10.0.0.253"));
    ia.set_promiscuous(true);
    ib.set_promiscuous(true);

    a1 = add_host("a1", *seg_a, "10.0.0.1");
    a2 = add_host("a2", *seg_a, "10.0.0.2");
    b1 = add_host("b1", *seg_b, "10.0.0.11");
    b2 = add_host("b2", *seg_b, "10.0.0.12");

    rt = std::make_unique<asp::runtime::AspRuntime>(*bridge);
    rt->install(asp_source("bridge"));
  }

  Node* add_host(const char* name, asp::net::EthernetSegment& seg, const char* addr) {
    Node& n = net.add_node(name);
    net.attach(n, seg, ip(addr));
    return &n;
  }

  int count_at(Node& n, std::uint16_t port, std::function<void()> traffic) {
    int got = 0;
    UdpSocket sock(n, port, [&](const Packet&) { ++got; });
    traffic();
    net.run_until(net.now() + asp::net::seconds(1));
    return got;
  }

  Network net;
  Node* bridge;
  asp::net::EthernetSegment* seg_a;
  asp::net::EthernetSegment* seg_b;
  Node *a1, *a2, *b1, *b2;
  std::unique_ptr<asp::runtime::AspRuntime> rt;
};

TEST(Bridge, ForwardsAcrossSegments) {
  BridgeRig rig;
  UdpSocket src(*rig.a1, 9999, nullptr);
  int got = rig.count_at(*rig.b1, 7, [&] {
    src.send_to(rig.b1->addr(), 7, asp::net::bytes_of("cross"));
  });
  EXPECT_EQ(got, 1);
}

TEST(Bridge, LearnsAndFiltersSameSegmentTraffic) {
  BridgeRig rig;
  // Teach the bridge where a2 lives: a2 sends something first.
  UdpSocket src_a2(*rig.a2, 9998, nullptr);
  UdpSocket src_a1(*rig.a1, 9999, nullptr);
  UdpSocket sink_b(*rig.b1, 9, nullptr);
  src_a2.send_to(rig.b1->addr(), 9, asp::net::bytes_of("hello"));
  rig.net.run_until(rig.net.now() + asp::net::seconds(1));

  std::uint64_t sent_before = rig.rt->stats().packets_sent;
  // a1 -> a2 is same-segment: the segment delivers it directly, and the
  // learned bridge must NOT re-emit it onto segment B.
  int got = rig.count_at(*rig.a2, 7, [&] {
    src_a1.send_to(rig.a2->addr(), 7, asp::net::bytes_of("local"));
  });
  EXPECT_EQ(got, 1);                               // direct segment delivery
  EXPECT_EQ(rig.rt->stats().packets_sent, sent_before);  // bridge stayed silent
}

TEST(Bridge, UnknownDestinationIsFlooded) {
  BridgeRig rig;
  UdpSocket src(*rig.a1, 9999, nullptr);
  std::uint64_t sent_before = rig.rt->stats().packets_sent;
  // 10.0.0.99 does not exist: the bridge has never seen it, so it floods.
  src.send_to(ip("10.0.0.99"), 7, asp::net::bytes_of("who?"));
  rig.net.run_until(rig.net.now() + asp::net::seconds(1));
  EXPECT_EQ(rig.rt->stats().packets_sent, sent_before + 1);
}

TEST(Bridge, BidirectionalConversation) {
  BridgeRig rig;
  int at_b = 0, at_a = 0;
  UdpSocket pong(*rig.b2, 7, [&](const Packet& p) {
    ++at_b;
    // reply
    UdpSocket tmp(*rig.b2, 9997, nullptr);
    tmp.send_to(p.ip.src, 8, asp::net::bytes_of("pong"));
  });
  UdpSocket ping_back(*rig.a1, 8, [&](const Packet&) { ++at_a; });
  UdpSocket src(*rig.a1, 9999, nullptr);
  for (int i = 0; i < 3; ++i) {
    src.send_to(rig.b2->addr(), 7, asp::net::bytes_of("ping"));
  }
  rig.net.run_until(rig.net.now() + asp::net::seconds(2));
  EXPECT_EQ(at_b, 3);
  EXPECT_EQ(at_a, 3);
}

TEST(Bridge, BuiltinCBridgeBehavesIdentically) {
  // The comparison baseline: same logic against the packet structs.
  BridgeRig rig;
  rig.rt->uninstall();
  auto table = std::make_shared<std::map<std::uint32_t, int>>();
  rig.bridge->set_ip_hook([table, bridge = rig.bridge](Packet& p,
                                                       asp::net::Interface& in) {
    (*table)[p.ip.src.bits()] = in.index();
    auto it = table->find(p.ip.dst.bits());
    int side = it != table->end() ? it->second : -1;
    if (side == in.index()) return true;  // filter
    for (std::size_t i = 0; i < bridge->iface_count(); ++i) {
      if (static_cast<int>(i) == in.index()) continue;
      Packet copy = p;
      bridge->iface(static_cast<int>(i)).transmit(std::move(copy));
    }
    return true;
  });

  UdpSocket src(*rig.a1, 9999, nullptr);
  int got = rig.count_at(*rig.b1, 7, [&] {
    src.send_to(rig.b1->addr(), 7, asp::net::bytes_of("cross"));
  });
  EXPECT_EQ(got, 1);
}

}  // namespace
}  // namespace asp::apps
