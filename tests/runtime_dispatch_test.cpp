// Fast-path dispatch and copy-on-write payload semantics: the interned
// dispatch index must preserve the paper's channel model (overloads sharing a
// name all fire, untagged traffic goes to `network`, unknown tags fall
// through to IP), and payload fan-out must alias one buffer until a writer
// appears.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "runtime/engine.hpp"
#include "runtime/netapi.hpp"

namespace asp::runtime {
namespace {

using asp::net::ip;
using asp::net::millis;
using asp::net::Network;
using asp::net::Node;
using asp::net::Packet;
using asp::net::UdpSocket;

Packet tagged_udp(const char* tag, std::vector<std::uint8_t> payload) {
  Packet p = Packet::make_udp(ip("10.0.0.1"), ip("10.0.0.2"), 9999, 7,
                              std::move(payload));
  p.set_channel(tag);
  return p;
}

TEST(Dispatch, OverloadedChannelsSharingANameAllFire) {
  Network net;
  Node& n = net.add_node("n");
  n.add_interface(ip("10.0.0.2"));
  AspRuntime rt(n);
  rt.install(R"(
channel ctrl(ps : int, ss : unit, p : ip*udp*char*int) is
  (println("ci"); drop(); (ps + 1, ss))
channel ctrl(ps : int, ss : unit, p : ip*udp*blob) is
  (println("b"); drop(); (ps + 1, ss))
)");
  // A 5-byte payload decodes as char*int AND as blob: both overloads of the
  // tagged channel must run, in declaration order.
  EXPECT_TRUE(rt.inject(tagged_udp("ctrl", {'A', 0, 0, 0, 1})));
  EXPECT_EQ(rt.log(), "ci\nb\n");
  EXPECT_EQ(rt.stats().packets_handled, 2u);
}

TEST(Dispatch, UntaggedTrafficReachesNetworkChannels) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));
  AspRuntime rt(b);
  rt.install(R"(
channel ctrl(ps : unit, ss : unit, p : ip*udp*blob) is
  (println("ctrl"); drop(); (ps, ss))
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  (println("net"); deliver(p); (ps, ss))
)");
  int got = 0;
  UdpSocket sock(b, 7, [&](const Packet&) { ++got; });
  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, asp::net::bytes_of("hello"));
  net.run();
  // Plain UDP traffic carries no tag: only the `network` channel sees it.
  EXPECT_EQ(rt.log(), "net\n");
  EXPECT_EQ(got, 1);
  EXPECT_EQ(rt.stats().packets_handled, 1u);
}

TEST(Dispatch, UnknownTagFallsThroughToIp) {
  Network net;
  Node& n = net.add_node("n");
  n.add_interface(ip("10.0.0.2"));
  AspRuntime rt(n);
  rt.install(R"(
channel ctrl(ps : unit, ss : unit, p : ip*udp*blob) is (drop(); (ps, ss))
channel network(ps : unit, ss : unit, p : ip*udp*blob) is (drop(); (ps, ss))
)");
  // A tag no channel declares: the protocol must not claim the packet — it
  // falls through to standard IP processing.
  EXPECT_FALSE(rt.inject(tagged_udp("nosuch", {1, 2, 3})));
  EXPECT_EQ(rt.stats().packets_passed, 1u);
  EXPECT_EQ(rt.stats().packets_handled, 0u);
}

TEST(Dispatch, PacketTaggedBeforeInstallDispatchesByTag) {
  Network net;
  Node& n = net.add_node("n");
  n.add_interface(ip("10.0.0.2"));
  // The packet interns its channel name before any protocol declares it:
  // ids are process-wide and stable, so the runtime installed afterwards
  // classifies the packet by the same id.
  Packet p = tagged_udp("ctrl_tagged_first", {1});
  ASSERT_NE(p.channel_tag, 0u);
  EXPECT_EQ(asp::net::ChannelTags::name_of(p.channel_tag), "ctrl_tagged_first");
  AspRuntime rt(n);
  rt.install(R"(
channel ctrl_tagged_first(ps : unit, ss : unit, p : ip*udp*blob) is
  (println("c"); drop(); (ps, ss))
)");
  EXPECT_TRUE(rt.inject(std::move(p)));
  EXPECT_EQ(rt.log(), "c\n");
}

TEST(Payload, CopiesAliasOneBufferUntilMutation) {
  Packet p1 = Packet::make_udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2,
                               std::vector<std::uint8_t>{1, 2, 3, 4});
  Packet p2 = p1;
  EXPECT_EQ(p1.payload.buffer().get(), p2.payload.buffer().get());

  p2.mutable_payload()[0] = 9;  // first write clones
  EXPECT_NE(p1.payload.buffer().get(), p2.payload.buffer().get());
  EXPECT_EQ(p1.payload[0], 1);
  EXPECT_EQ(p2.payload[0], 9);

  // A sole owner mutates in place: no further cloning.
  const auto* rep = p2.payload.buffer().get();
  p2.mutable_payload()[1] = 8;
  EXPECT_EQ(p2.payload.buffer().get(), rep);
}

TEST(Payload, EthernetFanOutSharesOnePayloadBuffer) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Node& c = net.add_node("c");
  auto& seg = net.segment("lan", 10e6);
  net.attach(a, seg, ip("10.0.0.1"));
  net.attach(b, seg, ip("10.0.0.2"));
  net.attach(c, seg, ip("10.0.0.3"));
  c.iface(0).set_promiscuous(true);

  const std::vector<std::uint8_t>* seen_b = nullptr;
  const std::vector<std::uint8_t>* seen_c = nullptr;
  b.set_ip_hook([&](Packet& p, asp::net::Interface&) {
    seen_b = p.payload.buffer().get();
    return false;
  });
  c.set_ip_hook([&](Packet& p, asp::net::Interface&) {
    seen_c = p.payload.buffer().get();
    return false;
  });

  Packet p = Packet::make_udp(ip("10.0.0.1"), ip("10.0.0.2"), 9999, 7,
                              std::vector<std::uint8_t>(512, 0xAB));
  const auto* sent = p.payload.buffer().get();
  a.send_ip(std::move(p));
  net.run();

  // Both stations on the segment saw the frame, and neither delivery copied
  // the payload: all three views alias the sender's buffer.
  ASSERT_NE(seen_b, nullptr);
  ASSERT_NE(seen_c, nullptr);
  EXPECT_EQ(seen_b, sent);
  EXPECT_EQ(seen_c, sent);
}

TEST(Payload, DecodedBlobAliasesThePacketBuffer) {
  Packet p = Packet::make_udp(ip("10.0.0.1"), ip("10.0.0.2"), 9999, 7,
                              std::vector<std::uint8_t>{5, 6, 7});
  const DecodePlan plan = compile_decode_plan(planp::Type::Tuple(
      {planp::Type::Ip(), planp::Type::Udp(), planp::Type::Blob()}));
  EXPECT_TRUE(match_packet(p, plan));
  std::optional<planp::Value> v = decode_packet(p, plan);
  ASSERT_TRUE(v.has_value());
  const planp::Blob& blob = std::get<planp::Blob>(v->as_tuple()[2].rep());
  EXPECT_EQ(blob.get(), p.payload.buffer().get());
}

}  // namespace
}  // namespace asp::runtime
