// Per-segment adaptation with a chain of routers (paper §3.1: "clients on
// different paths in the network can receive different levels of quality
// depending only on the traffic on that path" — "audio clients in IRISA may
// still receive high-quality audio" while the loaded segment degrades).
#include <gtest/gtest.h>

#include "apps/asp_files.hpp"
#include "apps/audio/audio.hpp"
#include "net/network.hpp"
#include "runtime/engine.hpp"

namespace asp::apps {
namespace {

using asp::net::ip;
using asp::net::millis;
using asp::net::Network;
using asp::net::Node;
using asp::net::seconds;

TEST(AudioTwoTier, OnlyTheLoadedSegmentIsDegraded) {
  Network net;
  const asp::net::Ipv4Addr group = ip("224.1.1.1");

  Node& source = net.add_node("source");
  Node& r1 = net.add_router("r1");
  Node& r2 = net.add_router("r2");
  net.link(source, ip("10.0.1.1"), r1, ip("10.0.1.254"), 100e6, millis(1));
  auto& seg_fast = net.segment("fast-lan", 10e6);  // quiet segment at r1
  net.attach(r1, seg_fast, ip("192.168.1.254"));
  net.link(r1, ip("10.0.2.1"), r2, ip("10.0.2.254"), 100e6, millis(1));
  auto& seg_slow = net.segment("slow-lan", 10e6);  // loaded segment at r2
  net.attach(r2, seg_slow, ip("192.168.2.254"));

  Node& client_fast = net.add_node("client-fast");
  net.attach(client_fast, seg_fast, ip("192.168.1.1"));
  Node& client_slow = net.add_node("client-slow");
  net.attach(client_slow, seg_slow, ip("192.168.2.1"));
  Node& loadgen = net.add_node("loadgen");
  net.attach(loadgen, seg_slow, ip("192.168.2.2"));
  Node& sink = net.add_node("sink");
  net.attach(sink, seg_slow, ip("192.168.2.3"));

  // Multicast plumbing: source -> r1 -> {fast segment, r2}; r2 -> slow segment.
  source.add_mroute(group, {0});
  source.routes().add_default(0);
  r1.add_mroute(group, {1, 2});
  r2.add_mroute(group, {1});

  // The same adaptation ASP in both routers, each watching its own segment.
  asp::runtime::AspRuntime rt1(r1), rt2(r2);
  rt1.set_monitored_medium(&seg_fast);
  rt1.install(asp_source("audio_router"));
  rt2.set_monitored_medium(&seg_slow);
  rt2.install(asp_source("audio_router"));

  asp::runtime::AspRuntime rt_cf(client_fast), rt_cs(client_slow);
  rt_cf.install(asp_source("audio_client"));
  rt_cs.install(asp_source("audio_client"));

  AudioSource src(source, group);
  AudioClient fast(client_fast, group);
  AudioClient slow(client_slow, group);
  LoadGenerator gen(loadgen, sink.addr());

  src.start();
  fast.start();
  slow.start();
  gen.start();
  gen.set_rate_bps(9.7e6);  // saturate only the slow segment

  net.run_until(seconds(15));

  // The fast client still gets full 16-bit stereo; the slow client gets
  // 8-bit mono, degraded by the *second* router.
  EXPECT_EQ(fast.last_level(), 0);
  EXPECT_EQ(slow.last_level(), 2);
  EXPECT_GT(fast.frames_received(), 700u);
  EXPECT_GT(slow.frames_received(), 700u);
  // Both play the same stream; both ASPs were active.
  EXPECT_GT(rt1.stats().packets_handled, 0u);
  EXPECT_GT(rt2.stats().packets_handled, 0u);
  // The wire rates differ by the expected factor (~190 vs ~58 kb/s).
  EXPECT_NEAR(fast.wire_rate_bps() / 1000.0, 190, 15);
  EXPECT_NEAR(slow.wire_rate_bps() / 1000.0, 58, 15);
}

TEST(AudioTwoTier, UpstreamDegradationIsNotUndoneDownstream) {
  // Load the FIRST segment instead: the second router must pass the already
  // degraded stream through unchanged (need > cur fails), not upgrade it.
  Network net;
  const asp::net::Ipv4Addr group = ip("224.1.1.2");

  Node& source = net.add_node("source");
  Node& r1 = net.add_router("r1");
  Node& r2 = net.add_router("r2");
  net.link(source, ip("10.0.1.1"), r1, ip("10.0.1.254"), 100e6, millis(1));
  auto& seg_mid = net.segment("mid-lan", 10e6);  // loaded middle segment
  net.attach(r1, seg_mid, ip("192.168.1.254"));
  net.attach(r2, seg_mid, ip("192.168.1.253"));
  auto& seg_leaf = net.segment("leaf-lan", 10e6);  // quiet leaf segment
  net.attach(r2, seg_leaf, ip("192.168.2.254"));

  Node& client = net.add_node("client");
  net.attach(client, seg_leaf, ip("192.168.2.1"));
  Node& loadgen = net.add_node("loadgen");
  net.attach(loadgen, seg_mid, ip("192.168.1.2"));
  Node& sink = net.add_node("sink");
  net.attach(sink, seg_mid, ip("192.168.1.3"));

  source.add_mroute(group, {0});
  source.routes().add_default(0);
  r1.add_mroute(group, {1});
  r2.add_mroute(group, {1});

  asp::runtime::AspRuntime rt1(r1), rt2(r2);
  rt1.set_monitored_medium(&seg_mid);
  rt1.install(asp_source("audio_router"));
  rt2.set_monitored_medium(&seg_leaf);
  rt2.install(asp_source("audio_router"));
  asp::runtime::AspRuntime rt_c(client);
  rt_c.install(asp_source("audio_client"));

  AudioSource src(source, group);
  AudioClient c(client, group);
  LoadGenerator gen(loadgen, sink.addr());
  src.start();
  c.start();
  gen.start();
  gen.set_rate_bps(9.7e6);

  net.run_until(seconds(15));
  // Degraded at r1 for the mid segment; r2's quiet leaf cannot restore what
  // was lost upstream — the level stays 2.
  EXPECT_EQ(c.last_level(), 2);
  EXPECT_GT(c.frames_received(), 700u);
}

}  // namespace
}  // namespace asp::apps
