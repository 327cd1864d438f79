#include "planp/netapi.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "planp/parser.hpp"

namespace asp::planp {
namespace {

using asp::net::ip;
using asp::net::IpProto;
using asp::net::Packet;

TypePtr ptype(const std::string& t) {
  // Parse a packet type by embedding it in a channel declaration.
  Program p = parse(
      "channel c(ps : unit, ss : unit, p : " + t + ") is (deliver(p); (ps, ss))");
  return std::get<ChannelDef>(p.decls[0]).packet_type;
}

/// Decodes `p` as packet type `t` through a compiled plan, as the runtime
/// does, and checks that the match check the runtime makes first agrees.
std::optional<Value> decode(const Packet& p, const std::string& t) {
  const DecodePlan plan = compile_decode_plan(ptype(t));
  std::optional<Value> v = decode_packet(p, plan);
  EXPECT_EQ(match_packet(p, plan), v.has_value()) << t;
  return v;
}

TEST(NetApi, DecodesTcpBlob) {
  Packet p = Packet::make_tcp(ip("1.1.1.1"), ip("2.2.2.2"), {1000, 80, 7, 8, 0, 0},
                              {10, 20, 30});
  auto v = decode(p, "ip*tcp*blob");
  ASSERT_TRUE(v.has_value());
  const auto& t = v->as_tuple();
  EXPECT_EQ(t[0].as_ip().src, ip("1.1.1.1"));
  EXPECT_EQ(t[1].as_tcp().dport, 80);
  EXPECT_EQ(t[2].as_blob()->size(), 3u);
}

TEST(NetApi, TcpPatternRejectsUdpPacket) {
  Packet p = Packet::make_udp(ip("1.1.1.1"), ip("2.2.2.2"), 1000, 80, {1});
  EXPECT_FALSE(decode(p, "ip*tcp*blob").has_value());
  EXPECT_TRUE(decode(p, "ip*udp*blob").has_value());
}

TEST(NetApi, HeaderOnlyPatternAcceptsAnyProtocol) {
  Packet tcp = Packet::make_tcp(ip("1.1.1.1"), ip("2.2.2.2"), {}, {9});
  Packet udp = Packet::make_udp(ip("1.1.1.1"), ip("2.2.2.2"), 1, 2, {9});
  Packet raw = Packet::make_raw(ip("1.1.1.1"), ip("2.2.2.2"), {9});
  EXPECT_TRUE(decode(tcp, "ip*blob").has_value());
  EXPECT_TRUE(decode(udp, "ip*blob").has_value());
  EXPECT_TRUE(decode(raw, "ip*blob").has_value());
}

TEST(NetApi, DecodesScalarPayloadFields) {
  // char 'A', int 0x01020304, bool true, rest blob.
  Packet p = Packet::make_tcp(ip("1.1.1.1"), ip("2.2.2.2"), {},
                              {'A', 1, 2, 3, 4, 1, 0xAA, 0xBB});
  auto v = decode(p, "ip*tcp*char*int*bool*blob");
  ASSERT_TRUE(v.has_value());
  const auto& t = v->as_tuple();
  EXPECT_EQ(t[2].as_char(), 'A');
  EXPECT_EQ(t[3].as_int(), 0x01020304);
  EXPECT_TRUE(t[4].as_bool());
  EXPECT_EQ(t[5].as_blob()->size(), 2u);
}

TEST(NetApi, ShortPayloadDoesNotMatch) {
  Packet p = Packet::make_tcp(ip("1.1.1.1"), ip("2.2.2.2"), {}, {'A', 1, 2});
  EXPECT_FALSE(decode(p, "ip*tcp*char*int").has_value());
}

TEST(NetApi, IntIsBigEndianAndSigned) {
  Packet p = Packet::make_tcp(ip("1.1.1.1"), ip("2.2.2.2"), {}, {0xFF, 0xFF, 0xFF, 0xFE});
  auto v = decode(p, "ip*tcp*int");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_tuple()[2].as_int(), -2);
}

TEST(NetApi, EncodeDecodeRoundTrip) {
  Packet p = Packet::make_tcp(ip("9.9.9.9"), ip("8.8.8.8"), {4242, 80, 1, 2, 0x10, 512},
                              {'Z', 0, 0, 1, 0, 5, 6, 7});
  auto v = decode(p, "ip*tcp*char*int*blob");
  ASSERT_TRUE(v.has_value());
  Packet q = encode_packet(*v, 0u);
  EXPECT_EQ(q.ip.src, p.ip.src);
  EXPECT_EQ(q.ip.dst, p.ip.dst);
  EXPECT_EQ(q.tcp->sport, p.tcp->sport);
  EXPECT_EQ(q.tcp->flags, p.tcp->flags);
  EXPECT_EQ(q.payload, p.payload);
}

TEST(NetApi, EncodeAttachesChannelTag) {
  Packet p = Packet::make_raw(ip("1.1.1.1"), ip("2.2.2.2"), {1});
  auto v = decode(p, "ip*blob");
  Packet q = encode_packet(*v, asp::net::ChannelTags::intern("audio"));
  EXPECT_EQ(q.channel_tag, asp::net::ChannelTags::intern("audio"));
  EXPECT_EQ(q.wire_size(), p.wire_size() + 4);
}

TEST(NetApi, HeaderOnlyBlobCarriesTransportHeader) {
  // An `ip*blob` channel sees "everything after the IP header" as the blob,
  // so re-emitting the blob reconstructs the whole packet (what the learning
  // bridge relies on).
  Packet p = Packet::make_udp(ip("1.1.1.1"), ip("2.2.2.2"), 4321, 7, {9, 8, 7});
  auto v = decode(p, "ip*blob");
  ASSERT_TRUE(v.has_value());
  // blob = 8-byte UDP header + payload
  EXPECT_EQ(v->as_tuple()[1].as_blob()->size(), 8u + 3u);

  Packet q = encode_packet(*v, 0u);
  ASSERT_TRUE(q.udp.has_value());
  EXPECT_EQ(q.udp->sport, 4321);
  EXPECT_EQ(q.udp->dport, 7);
  EXPECT_EQ(q.payload, p.payload);
  EXPECT_EQ(q.ip.proto, IpProto::kUdp);
}

TEST(NetApi, HeaderOnlyBlobRoundTripsTcp) {
  Packet p = Packet::make_tcp(ip("1.1.1.1"), ip("2.2.2.2"),
                              {1000, 80, 12345, 678, 0x12, 555}, {1, 2});
  auto v = decode(p, "ip*blob");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_tuple()[1].as_blob()->size(), 20u + 2u);
  Packet q = encode_packet(*v, 0u);
  ASSERT_TRUE(q.tcp.has_value());
  EXPECT_EQ(q.tcp->sport, 1000);
  EXPECT_EQ(q.tcp->seq, 12345u);
  EXPECT_EQ(q.tcp->ack, 678u);
  EXPECT_EQ(q.tcp->flags, 0x12);
  EXPECT_EQ(q.tcp->wnd, 555);
  EXPECT_EQ(q.payload, p.payload);
}

TEST(NetApi, RawPacketsHaveNoHiddenHeader) {
  Packet p = Packet::make_raw(ip("1.1.1.1"), ip("2.2.2.2"), {5, 5});
  auto v = decode(p, "ip*blob");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_tuple()[1].as_blob()->size(), 2u);
  Packet q = encode_packet(*v, 0u);
  EXPECT_EQ(q.ip.proto, IpProto::kRaw);
  EXPECT_EQ(q.payload, p.payload);
}

TEST(NetApi, BoolStrictEncoding) {
  Packet p = Packet::make_tcp(ip("1.1.1.1"), ip("2.2.2.2"), {}, {2});
  EXPECT_FALSE(decode(p, "ip*tcp*bool").has_value());
  // Header-only pattern: the bool is the serialized UDP header's first byte,
  // the source port's high byte, so matching materializes the header bytes.
  Packet one = Packet::make_udp(ip("1.1.1.1"), ip("2.2.2.2"), 0x0100, 7, {});
  Packet two = Packet::make_udp(ip("1.1.1.1"), ip("2.2.2.2"), 0x0200, 7, {});
  EXPECT_TRUE(decode(one, "ip*bool*blob").has_value());
  EXPECT_FALSE(decode(two, "ip*bool*blob").has_value());
}

/// Every field of a packet that reaches the wire or the next hop.
std::string describe(const Packet& p) {
  std::string s = p.ip.src.str() + ">" + p.ip.dst.str() +
                  " proto=" + std::to_string(static_cast<int>(p.ip.proto)) +
                  " ttl=" + std::to_string(p.ip.ttl) + " tos=" + std::to_string(p.ip.tos) +
                  " tag=" + std::to_string(p.channel_tag) + " id=" + std::to_string(p.id) +
                  " l2=" + p.l2_next_hop.str();
  if (p.tcp) {
    s += " tcp " + std::to_string(p.tcp->sport) + ">" + std::to_string(p.tcp->dport) + " " +
         std::to_string(p.tcp->seq) + " " + std::to_string(p.tcp->ack) + " " +
         std::to_string(p.tcp->flags) + " " + std::to_string(p.tcp->wnd);
  }
  if (p.udp) s += " udp " + std::to_string(p.udp->sport) + ">" + std::to_string(p.udp->dport);
  s += " payload=";
  for (std::uint8_t b : p.payload) s += std::to_string(b) + ",";
  return s;
}

// The JIT sends its unmodified packet as reemit_packet's copy; it must be
// exactly what the interpreter's decode-then-encode builds, for every shape
// a plan accepts: typed transports, header-only plans on raw, TCP and UDP
// packets, payloads longer than fixed scalar fields, and inconsistent
// packets whose headers disagree with ip.proto.
TEST(NetApi, ReemitEqualsDecodeThenEncode) {
  std::vector<Packet> packets = {
      Packet::make_tcp(ip("1.1.1.1"), ip("2.2.2.2"), {1000, 80, 7, 8, 0x12, 99},
                       {'A', 0, 0, 1, 0, 1, 9, 9}),
      Packet::make_udp(ip("1.1.1.1"), ip("2.2.2.2"), 4321, 7, {'B', 0, 0, 0, 2, 0}),
      Packet::make_raw(ip("1.1.1.1"), ip("2.2.2.2"), {'C', 1, 2, 3, 4, 1}),
      Packet::make_tcp(ip("1.1.1.1"), ip("2.2.2.2"), {}, {'D', 1, 2, 3, 4}),
      Packet::make_udp(ip("1.1.1.1"), ip("2.2.2.2"), 1, 2, {}),
  };
  // ip.proto says TCP, but there is no TCP header: split_rest parses bytes.
  Packet lying = Packet::make_raw(ip("3.3.3.3"), ip("4.4.4.4"),
                                  std::vector<std::uint8_t>(30, 0x01));
  lying.ip.proto = IpProto::kTcp;
  packets.push_back(lying);
  // Both transport headers at once.
  Packet both = Packet::make_udp(ip("5.5.5.5"), ip("6.6.6.6"), 5, 6, {1, 1, 1, 1, 1});
  both.tcp = asp::net::TcpHeader{1, 2, 3, 4, 5, 6};
  packets.push_back(both);
  for (Packet& p : packets) {
    p.id = 77;  // what the sender stamped: the copy is a new packet
    p.channel_tag = asp::net::ChannelTags::intern("audio");
    p.l2_next_hop = ip("9.9.9.9");
    p.ip.ttl = 12;
    p.ip.tos = 3;
  }
  const char* types[] = {"ip*blob",      "ip*tcp*blob",   "ip*udp*blob",
                         "ip*char*blob", "ip*tcp*char*int", "ip*udp*char*int*bool",
                         "ip*char*int",  "ip*int*bool*blob", "ip*tcp*char*int*bool*blob"};
  int matched = 0;
  for (const char* t : types) {
    const DecodePlan plan = compile_decode_plan(ptype(t));
    for (const Packet& p : packets) {
      if (!match_packet(p, plan)) continue;
      ++matched;
      EXPECT_EQ(describe(reemit_packet(p, plan)),
                describe(encode_packet(*decode_packet(p, plan), 0)))
          << t << " on " << describe(p);
    }
  }
  EXPECT_GE(matched, 20);
}

}  // namespace
}  // namespace asp::planp
