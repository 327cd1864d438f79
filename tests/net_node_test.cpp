#include "net/node.hpp"

#include <gtest/gtest.h>

#include <random>

#include "net/network.hpp"

namespace asp::net {
namespace {

TEST(RoutingTable, LongestPrefixWins) {
  RoutingTable rt;
  rt.add_default(0);
  rt.add(ip("10.0.0.0"), 8, 1);
  rt.add(ip("10.1.0.0"), 16, 2);
  rt.add(ip("10.1.2.0"), 24, 3);

  EXPECT_EQ(rt.lookup(ip("10.1.2.3"))->iface, 3);
  EXPECT_EQ(rt.lookup(ip("10.1.9.9"))->iface, 2);
  EXPECT_EQ(rt.lookup(ip("10.9.9.9"))->iface, 1);
  EXPECT_EQ(rt.lookup(ip("172.16.0.1"))->iface, 0);
}

TEST(RoutingTable, EmptyTableReturnsNull) {
  RoutingTable rt;
  EXPECT_EQ(rt.lookup(ip("1.2.3.4")), nullptr);
}

// One route as added, for the reference lookup below.
struct AddedRoute {
  Ipv4Addr prefix;
  int prefix_len = 0;
  int iface = 0;
  Ipv4Addr next_hop;
};

// Reference longest-prefix match: every route is tested, the longest match
// wins, and among equal prefix lengths the first added wins. Host bits set
// in a route's prefix are ignored.
const AddedRoute* brute_force_lookup(const std::vector<AddedRoute>& added, Ipv4Addr dst) {
  const AddedRoute* best = nullptr;
  for (const AddedRoute& r : added) {
    const std::uint64_t mask = (0xFFFFFFFFull << (32 - r.prefix_len)) & 0xFFFFFFFFull;
    if ((dst.bits() & mask) != (r.prefix.bits() & mask)) continue;
    if (best == nullptr || r.prefix_len > best->prefix_len) best = &r;
  }
  return best;
}

TEST(RoutingTable, MatchesBruteForceLongestPrefixOnRandomTables) {
  std::mt19937 rng(20261018);
  auto draw = [&](std::uint32_t n) { return static_cast<std::uint32_t>(rng() % n); };
  int checked = 0;
  int matched = 0;
  for (int table = 0; table < 60; ++table) {
    RoutingTable rt;
    std::vector<AddedRoute> added;  // insertion order; iface = insertion index
    const std::uint32_t n_routes = 1 + draw(48);
    for (std::uint32_t i = 0; i < n_routes; ++i) {
      AddedRoute r;
      const std::uint32_t kind = draw(8);
      if (kind == 0) {
        r.prefix_len = 0;
      } else if (kind == 1) {
        r.prefix_len = 32;
      } else {
        r.prefix_len = static_cast<int>(draw(33));
      }
      r.prefix = Ipv4Addr{static_cast<std::uint32_t>(rng())};  // host bits set
      if (!added.empty() && draw(5) == 0) {
        // Equal prefix on another interface: the first added must win.
        const AddedRoute& twin = added[draw(static_cast<std::uint32_t>(added.size()))];
        r.prefix = twin.prefix;
        r.prefix_len = twin.prefix_len;
      }
      r.iface = static_cast<int>(i);
      r.next_hop = Ipv4Addr{draw(2) == 0 ? 0u : static_cast<std::uint32_t>(rng())};
      rt.add(r.prefix, r.prefix_len, r.iface, r.next_hop);
      added.push_back(r);
    }
    for (int k = 0; k < 200; ++k) {
      Ipv4Addr dst{static_cast<std::uint32_t>(rng())};
      if (draw(2) == 0) {
        // Near a route: keep a random number of its leading bits, so long
        // prefixes are hit and nearly hit.
        const AddedRoute& near = added[draw(static_cast<std::uint32_t>(added.size()))];
        const int keep = static_cast<int>(draw(33));
        const std::uint64_t mask = (0xFFFFFFFFull << (32 - keep)) & 0xFFFFFFFFull;
        dst = Ipv4Addr{static_cast<std::uint32_t>((near.prefix.bits() & mask) |
                                                  (dst.bits() & ~mask))};
      }
      const AddedRoute* want = brute_force_lookup(added, dst);
      const Route* got = rt.lookup(dst);
      ++checked;
      if (want == nullptr) {
        EXPECT_EQ(got, nullptr) << "table " << table << " dst " << dst.str();
        continue;
      }
      ++matched;
      ASSERT_NE(got, nullptr) << "table " << table << " dst " << dst.str();
      EXPECT_EQ(got->iface, want->iface) << "table " << table << " dst " << dst.str();
      EXPECT_EQ(got->prefix_len(), want->prefix_len);
      EXPECT_EQ(got->prefix, want->prefix);
      EXPECT_EQ(got->next_hop, want->next_hop);
    }
  }
  EXPECT_GE(checked, 10000);
  EXPECT_GT(matched, checked / 2);  // most lookups exercise a real match
}

TEST(Node, OwnsAllInterfaceAddresses) {
  Network net;
  Node& n = net.add_node("n");
  n.add_interface(ip("10.0.0.1"));
  n.add_interface(ip("192.168.1.1"));
  EXPECT_TRUE(n.owns(ip("10.0.0.1")));
  EXPECT_TRUE(n.owns(ip("192.168.1.1")));
  EXPECT_FALSE(n.owns(ip("10.0.0.2")));
  EXPECT_EQ(n.addr(), ip("10.0.0.1"));
}

TEST(Node, LoopbackDelivery) {
  Network net;
  Node& n = net.add_node("n");
  n.add_interface(ip("10.0.0.1"));
  int got = 0;
  UdpSocket sock(n, 5000, [&](const Packet&) { ++got; });
  sock.send_to(n.addr(), 5000, bytes_of("hi"));
  net.run();
  EXPECT_EQ(got, 1);
}

TEST(Node, RouterForwardsAcrossLinks) {
  Network net;
  Node& a = net.add_node("a");
  Node& r = net.add_router("r");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.1.1"), r, ip("10.0.1.254"), 10e6, millis(1));
  net.link(r, ip("10.0.2.254"), b, ip("10.0.2.1"), 10e6, millis(1));
  a.routes().add_default(0);
  b.routes().add_default(0);
  r.routes().add(ip("10.0.1.0"), 24, 0);
  r.routes().add(ip("10.0.2.0"), 24, 1);

  int got = 0;
  UdpSocket sock(b, 7, [&](const Packet& p) {
    ++got;
    EXPECT_EQ(p.ip.src, ip("10.0.1.1"));
    EXPECT_EQ(p.ip.ttl, 63);  // one hop decrements once
  });
  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, bytes_of("x"));
  net.run();
  EXPECT_EQ(got, 1);
}

// A packet is boxed once, where it enters the network, and the same box
// crosses every link and router to the last hop: no hop re-boxes or copies it.
TEST(Node, UnicastCrossesFourRoutersInOneBox) {
  Network net;
  std::vector<Node*> chain;
  chain.push_back(&net.add_node("a"));
  for (int i = 1; i <= 4; ++i) chain.push_back(&net.add_router("r" + std::to_string(i)));
  chain.push_back(&net.add_node("b"));
  // Link i joins chain[i] (10.0.<i+1>.1) to chain[i+1] (10.0.<i+1>.2).
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    const auto subnet = static_cast<std::uint8_t>(i + 1);
    net.link(*chain[i], Ipv4Addr{10, 0, subnet, 1}, *chain[i + 1],
             Ipv4Addr{10, 0, subnet, 2}, 10e6, millis(1));
  }
  chain.front()->routes().add_default(0);
  chain.back()->routes().add_default(0);
  for (int i = 1; i <= 4; ++i) chain[static_cast<std::size_t>(i)]->routes().add_default(1);
  Node& a = *chain.front();
  Node& b = *chain.back();

  Buffer sent = acquire_buffer(16);
  const_cast<std::vector<std::uint8_t>&>(*sent).assign(16, 0x5A);
  int got = 0;
  UdpSocket sink(b, 7, [&](const Packet& p) {
    ++got;
    EXPECT_EQ(p.payload.buffer().get(), sent.get());
    EXPECT_EQ(p.ip.ttl, 60);  // four router hops
  });
  UdpSocket src(a, 9999, nullptr);

  const mem::PoolStats& boxes = packet_boxes().stats();
  const std::uint64_t before = boxes.hits + boxes.misses;
  src.send_to(b.addr(), 7, Payload(sent));
  net.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(boxes.hits + boxes.misses - before, 1u)
      << "packet boxes acquired for one packet over five links";
}

TEST(Node, HostDoesNotForwardTransitTraffic) {
  Network net;
  Node& a = net.add_node("a");
  Node& h = net.add_node("h");  // plain host in the middle
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.1.1"), h, ip("10.0.1.2"), 10e6, millis(1));
  net.link(h, ip("10.0.2.2"), b, ip("10.0.2.1"), 10e6, millis(1));
  a.routes().add_default(0);
  h.routes().add(ip("10.0.2.0"), 24, 1);

  int got = 0;
  UdpSocket sock(b, 7, [&](const Packet&) { ++got; });
  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, bytes_of("x"));
  net.run();
  EXPECT_EQ(got, 0);
}

TEST(Node, TtlExpiryDropsPacket) {
  Network net;
  Node& a = net.add_node("a");
  Node& r = net.add_router("r");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.1.1"), r, ip("10.0.1.254"), 10e6, millis(1));
  net.link(r, ip("10.0.2.254"), b, ip("10.0.2.1"), 10e6, millis(1));
  a.routes().add_default(0);
  r.routes().add(ip("10.0.2.0"), 24, 1);

  int got = 0;
  UdpSocket sock(b, 7, [&](const Packet&) { ++got; });
  Packet p = Packet::make_udp(a.addr(), b.addr(), 1, 7, bytes_of("x"));
  p.ip.ttl = 1;
  a.send_ip(std::move(p));
  net.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(r.dropped_ttl(), 1u);
}

TEST(Node, NoRouteIsCountedAndDropped) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.1.1"), b, ip("10.0.1.2"), 10e6, millis(1));
  // a has no routes at all.
  a.send_ip(Packet::make_udp(a.addr(), ip("99.99.99.99"), 1, 7, {}));
  net.run();
  EXPECT_EQ(a.dropped_no_route(), 1u);
}

TEST(Node, IpHookConsumesPacket) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.1.1"), b, ip("10.0.1.2"), 10e6, millis(1));
  a.routes().add_default(0);

  int hooked = 0, delivered = 0;
  b.set_ip_hook([&](Packet&, Interface&) {
    ++hooked;
    return true;  // consume
  });
  UdpSocket sock(b, 7, [&](const Packet&) { ++delivered; });
  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, bytes_of("x"));
  net.run();
  EXPECT_EQ(hooked, 1);
  EXPECT_EQ(delivered, 0);
}

TEST(Node, IpHookPassThroughKeepsDefaultBehaviour) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.1.1"), b, ip("10.0.1.2"), 10e6, millis(1));
  a.routes().add_default(0);

  int hooked = 0, delivered = 0;
  b.set_ip_hook([&](Packet&, Interface&) {
    ++hooked;
    return false;
  });
  UdpSocket sock(b, 7, [&](const Packet&) { ++delivered; });
  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, bytes_of("x"));
  net.run();
  EXPECT_EQ(hooked, 1);
  EXPECT_EQ(delivered, 1);
}

TEST(Node, HookCanRewriteDestination) {
  // The essence of the load-balancing gateway: rewrite ip.dst in flight.
  Network net;
  Node& a = net.add_node("a");
  Node& r = net.add_router("r");
  Node& b1 = net.add_node("b1");
  Node& b2 = net.add_node("b2");
  net.link(a, ip("10.0.1.1"), r, ip("10.0.1.254"), 10e6, millis(1));
  net.link(r, ip("10.0.2.254"), b1, ip("10.0.2.1"), 10e6, millis(1));
  net.link(r, ip("10.0.3.254"), b2, ip("10.0.3.1"), 10e6, millis(1));
  a.routes().add_default(0);
  r.routes().add(ip("10.0.1.0"), 24, 0);
  r.routes().add(ip("10.0.2.0"), 24, 1);
  r.routes().add(ip("10.0.3.0"), 24, 2);

  r.set_ip_hook([&](Packet& p, Interface&) {
    if (p.ip.dst == ip("10.0.2.1")) {
      p.ip.dst = ip("10.0.3.1");  // virtual -> physical
      r.forward(std::move(p));
      return true;
    }
    return false;
  });

  int got1 = 0, got2 = 0;
  UdpSocket s1(b1, 7, [&](const Packet&) { ++got1; });
  UdpSocket s2(b2, 7, [&](const Packet&) { ++got2; });
  UdpSocket src(a, 9999, nullptr);
  src.send_to(ip("10.0.2.1"), 7, bytes_of("x"));
  net.run();
  EXPECT_EQ(got1, 0);
  EXPECT_EQ(got2, 1);
}

TEST(Node, MulticastRoutingForwardsDownstream) {
  Network net;
  Node& src = net.add_node("src");
  Node& r = net.add_router("r");
  Node& c1 = net.add_node("c1");
  Node& c2 = net.add_node("c2");
  net.link(src, ip("10.0.1.1"), r, ip("10.0.1.254"), 10e6, millis(1));
  auto& lan = net.segment("lan", 10e6);
  net.attach(r, lan, ip("192.168.1.254"));
  net.attach(c1, lan, ip("192.168.1.1"));
  net.attach(c2, lan, ip("192.168.1.2"));

  Ipv4Addr group = ip("224.5.6.7");
  src.routes().add_default(0);
  src.add_mroute(group, {0});
  r.add_mroute(group, {1});
  c1.join_group(group);
  c2.join_group(group);

  int got1 = 0, got2 = 0;
  UdpSocket s1(c1, 7, [&](const Packet&) { ++got1; });
  UdpSocket s2(c2, 7, [&](const Packet&) { ++got2; });
  UdpSocket s(src, 9999, nullptr);
  s.send_to(group, 7, bytes_of("audio"));
  net.run();
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 1);
}

TEST(Node, UdpWithNoListenerIsCounted) {
  Network net;
  Node& n = net.add_node("n");
  n.add_interface(ip("10.0.0.1"));
  n.send_ip(Packet::make_udp(n.addr(), n.addr(), 1, 4242, {}));
  net.run();
  EXPECT_EQ(n.dropped_no_listener(), 1u);
}

}  // namespace
}  // namespace asp::net
