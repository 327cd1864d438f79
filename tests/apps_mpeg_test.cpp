#include "apps/mpeg/experiment.hpp"

#include <gtest/gtest.h>

#include "apps/asp_files.hpp"
#include "net/network.hpp"
#include "planp/analysis.hpp"
#include "planp/parser.hpp"

namespace asp::apps {
namespace {

using asp::net::ip;

TEST(MpegAsps, MonitorAspTypechecksAndTerminates) {
  auto report =
      planp::analyze(planp::typecheck(planp::parse(asp_source("mpeg_monitor"))));
  EXPECT_TRUE(report.local_termination);
  EXPECT_TRUE(report.global_termination) << report.global_termination_detail;
  EXPECT_TRUE(report.linear_duplication) << report.duplication_detail;
  // The monitor intentionally drops its observed copies: delivery is
  // (correctly) not guaranteed, which is advisory.
  EXPECT_FALSE(report.guaranteed_delivery);
}

TEST(MpegAsps, CaptureAspVerifies) {
  auto report =
      planp::analyze(planp::typecheck(planp::parse(asp_source("mpeg_capture"))));
  EXPECT_TRUE(report.accepted());
}

TEST(MpegApp, SingleClientStreamsFromServer) {
  MpegExperiment exp(/*sharing=*/false, 1);
  auto r = exp.run(5.0);
  EXPECT_EQ(r.server_streams, 1);
  EXPECT_EQ(r.clients_playing, 1);
  EXPECT_EQ(r.clients_sharing, 0);
  // GOP 9 frames = 29 kB at 30 fps => ~0.77 Mb/s + headers.
  EXPECT_NEAR(r.server_egress_mbps, 0.8, 0.25);
  EXPECT_NEAR(r.min_client_mbps, 0.8, 0.25);
}

TEST(MpegApp, WithoutSharingServerLoadGrowsLinearly) {
  MpegExperiment exp(/*sharing=*/false, 4);
  auto r = exp.run(6.0);
  EXPECT_EQ(r.server_streams, 4);
  EXPECT_NEAR(r.server_egress_mbps, 4 * 0.8, 0.8);
}

TEST(MpegApp, SharingServesManyClientsFromOneStream) {
  MpegExperiment exp(/*sharing=*/true, 4);
  auto r = exp.run(6.0);
  // The paper's claim: the server still serves a single point-to-point
  // stream, later clients capture it on the segment.
  EXPECT_EQ(r.server_streams, 1);
  EXPECT_EQ(r.clients_playing, 4);
  EXPECT_EQ(r.clients_sharing, 3);
  EXPECT_NEAR(r.server_egress_mbps, 0.8, 0.25);
  // Every client still receives the full stream rate.
  EXPECT_NEAR(r.min_client_mbps, 0.8, 0.25);
  EXPECT_NEAR(r.max_client_mbps, 0.8, 0.25);
}

TEST(MpegApp, FirstClientIsUnshared) {
  MpegExperiment exp(/*sharing=*/true, 1);
  auto r = exp.run(4.0);
  EXPECT_EQ(r.server_streams, 1);
  EXPECT_EQ(r.clients_sharing, 0);  // monitor had nothing to offer
  EXPECT_EQ(r.clients_playing, 1);
}

TEST(MpegApp, SharingScalesToEightClients) {
  MpegExperiment exp(/*sharing=*/true, 8);
  auto r = exp.run(8.0);
  EXPECT_EQ(r.server_streams, 1);
  EXPECT_EQ(r.clients_sharing, 7);
  EXPECT_NEAR(r.min_client_mbps, 0.8, 0.25);
}

TEST(MpegApp, OutOfRangeSharedPortFallsBackToTheServer) {
  // The monitor's reply carries the video port of another client's PLAY
  // line, stored verbatim, so it is outside input. A port past 65535 must
  // not install a capture for the port it wraps to (70000 -> 4464): the
  // client connects to the server instead.
  asp::net::Network net;
  asp::net::Node& server_node = net.add_node("video-server");
  asp::net::Node& router = net.add_router("router");
  net.link(server_node, ip("10.0.1.1"), router, ip("10.0.1.254"), 100e6,
           asp::net::millis(1));
  server_node.routes().add_default(0);
  auto& lan = net.segment("client-lan", 10e6, asp::net::micros(50));
  net.attach(router, lan, ip("192.168.1.254"));
  asp::net::Node& monitor = net.add_node("monitor");
  net.attach(monitor, lan, ip("192.168.1.100"));
  monitor.routes().add_default(0, ip("192.168.1.254"));
  asp::net::Node& client_node = net.add_node("client");
  net.attach(client_node, lan, ip("192.168.1.2"));
  client_node.routes().add_default(0, ip("192.168.1.254"));

  MpegServer server(server_node);
  asp::net::UdpSocket fake_monitor(
      monitor, MpegFormat::kQueryPort, [&fake_monitor](const asp::net::Packet& q) {
        fake_monitor.send_to(q.ip.src, q.udp->sport,
                             asp::net::bytes_of("FOUND 192.168.1.1 70000 SETUP movie.mpg"));
      });
  int captures = 0;
  MpegClient client(client_node, server_node.addr(), monitor.addr(), 7010,
                    [&captures](asp::net::Ipv4Addr, std::uint16_t) { ++captures; });
  client_node.events().schedule_at(asp::net::seconds(0.1),
                                   [&client] { client.play("movie.mpg"); });
  net.run_until(asp::net::seconds(2));

  EXPECT_EQ(captures, 0);
  EXPECT_FALSE(client.sharing());
  EXPECT_TRUE(client.playing());
  EXPECT_GT(client.frames(), 0u);
  EXPECT_EQ(server.active_streams(), 1);
  EXPECT_EQ(client.setup_info(), "SETUP movie.mpg 352 240 30\n");  // the server's
}

}  // namespace
}  // namespace asp::apps
