#include "net/addr.hpp"

#include <gtest/gtest.h>

#include "net/meter.hpp"
#include "net/packet.hpp"

namespace asp::net {
namespace {

TEST(Ipv4Addr, ParsesDottedQuad) {
  auto a = Ipv4Addr::parse("131.254.60.81");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->str(), "131.254.60.81");
  EXPECT_EQ(a->bits(), (131u << 24) | (254u << 16) | (60u << 8) | 81u);
}

TEST(Ipv4Addr, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Addr::parse("").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("256.0.0.1").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.x").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1..3.4").has_value());
  EXPECT_FALSE(Ipv4Addr::parse(" 1.2.3.4").has_value());
}

TEST(Ipv4Addr, RoundTripsAllOctetBoundaries) {
  for (const char* s : {"0.0.0.0", "255.255.255.255", "10.0.0.1", "224.0.0.1"}) {
    auto a = Ipv4Addr::parse(s);
    ASSERT_TRUE(a.has_value()) << s;
    EXPECT_EQ(a->str(), s);
  }
}

TEST(Ipv4Addr, MulticastRange) {
  EXPECT_TRUE(Ipv4Addr(224, 0, 0, 1).is_multicast());
  EXPECT_TRUE(Ipv4Addr(239, 255, 255, 255).is_multicast());
  EXPECT_FALSE(Ipv4Addr(223, 255, 255, 255).is_multicast());
  EXPECT_FALSE(Ipv4Addr(240, 0, 0, 0).is_multicast());
}

TEST(Ipv4Addr, PrefixMatching) {
  Ipv4Addr a(192, 168, 1, 57);
  EXPECT_TRUE(a.in_prefix(Ipv4Addr(192, 168, 1, 0), 24));
  EXPECT_FALSE(a.in_prefix(Ipv4Addr(192, 168, 2, 0), 24));
  EXPECT_TRUE(a.in_prefix(Ipv4Addr(192, 168, 0, 0), 16));
  EXPECT_TRUE(a.in_prefix({}, 0));  // default route matches everything
  EXPECT_TRUE(a.in_prefix(a, 32));
  EXPECT_FALSE(Ipv4Addr(192, 168, 1, 58).in_prefix(a, 32));
}

TEST(Packet, WireSizeIncludesHeaders) {
  Packet u = Packet::make_udp(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 1000, 2000,
                              std::vector<std::uint8_t>(100));
  EXPECT_EQ(u.wire_size(), 20u + 8u + 100u);

  TcpHeader th;
  Packet t = Packet::make_tcp(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), th,
                              std::vector<std::uint8_t>(50));
  EXPECT_EQ(t.wire_size(), 20u + 20u + 50u);

  Packet r = Packet::make_raw(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), {});
  EXPECT_EQ(r.wire_size(), 20u);

  r.set_channel("audio");
  EXPECT_EQ(r.wire_size(), 24u);  // +4 channel tag
}

TEST(Packet, StringPayloadRoundTrip) {
  auto b = bytes_of("GET /index.html");
  EXPECT_EQ(string_of(b), "GET /index.html");
}

TEST(BandwidthMeter, ComputesWindowRate) {
  BandwidthMeter m(kNsPerSec);  // 1 s window
  m.record(0, 1000);
  m.record(kNsPerSec / 2, 1000);
  // Only 0.5 s of history exists, so the average runs over the elapsed time,
  // not the whole window: 2000 bytes in 0.5 s -> 32 kb/s (dividing by the
  // full window would underreport start-up bandwidth, see meter.hpp).
  EXPECT_DOUBLE_EQ(m.rate_bps(kNsPerSec / 2), 32000.0);
  // Once a full window has elapsed, the same bytes average over the window.
  EXPECT_DOUBLE_EQ(m.rate_bps(kNsPerSec), 16000.0);
}

TEST(BandwidthMeter, EvictsOldSamples) {
  BandwidthMeter m(kNsPerSec);
  m.record(0, 1000);
  m.record(2 * kNsPerSec, 500);
  EXPECT_EQ(m.window_bytes(2 * kNsPerSec), 500u);
  EXPECT_DOUBLE_EQ(m.rate_bps(2 * kNsPerSec), 4000.0);
}

TEST(BandwidthMeter, EmptyWindowIsZero) {
  BandwidthMeter m;
  EXPECT_DOUBLE_EQ(m.rate_bps(5 * kNsPerSec), 0.0);
}

}  // namespace
}  // namespace asp::net
