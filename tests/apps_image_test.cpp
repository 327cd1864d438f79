// Image distillation extension (paper §5 medium-term goals).
#include <gtest/gtest.h>

#include "apps/asp_files.hpp"
#include "net/network.hpp"
#include "planp/analysis.hpp"
#include "planp/parser.hpp"
#include "runtime/engine.hpp"

namespace asp::apps {
namespace {

using asp::net::ip;
using asp::net::millis;
using asp::net::Network;
using asp::net::Node;
using asp::net::Packet;
using asp::net::UdpSocket;

TEST(ImageDistill, AspPassesAllAnalyses) {
  auto r = planp::analyze(planp::typecheck(planp::parse(asp_source("image_distill"))));
  EXPECT_TRUE(r.fully_verified())
      << r.global_termination_detail << r.delivery_detail << r.duplication_detail;
}

struct ImageRig {
  ImageRig() {
    src = &net.add_node("image-server");
    router = &net.add_router("router");
    dst = &net.add_node("viewer");
    net.link(*src, ip("10.0.1.1"), *router, ip("10.0.1.254"), 100e6, millis(1));
    seg = &net.segment("lan", 10e6, asp::net::micros(50));
    net.attach(*router, *seg, ip("192.168.1.254"));
    net.attach(*dst, *seg, ip("192.168.1.1"));
    src->routes().add_default(0);

    rt = std::make_unique<asp::runtime::AspRuntime>(*router);
    rt->set_monitored_medium(seg);
    rt->install(asp_source("image_distill"));
  }

  std::size_t send_image(std::size_t bytes) {
    std::size_t received = 0;
    UdpSocket sink(*dst, 8008, [&](const Packet& p) { received += p.payload.size(); });
    UdpSocket out(*src, 8008, nullptr);
    out.send_to(dst->addr(), 8008, std::vector<std::uint8_t>(bytes, 0x7F));
    net.run_until(net.now() + asp::net::seconds(1));
    return received;
  }

  void load_segment(double fraction) {
    // Pre-warm the segment meter with synthetic carried traffic: enough
    // bytes in the trailing window to read as `fraction` utilization. The
    // meter averages over elapsed history when less than a window exists, so
    // start its clock one full window early (0-byte sentinel) for the burst
    // to read as a window-average.
    asp::net::BandwidthMeter& m = seg->meter();
    asp::net::SimTime window = m.window();
    double window_sec = asp::net::to_seconds(window);
    auto bytes = static_cast<std::uint64_t>(10e6 * fraction * window_sec / 8.0);
    net.run_until(net.now() + window);
    m.record(net.now() - window, 0);
    m.record(net.now(), bytes);
  }

  Network net;
  Node* src;
  Node* router;
  Node* dst;
  asp::net::EthernetSegment* seg;
  std::unique_ptr<asp::runtime::AspRuntime> rt;
};

TEST(ImageDistill, QuietLinkPassesImagesUntouched) {
  ImageRig rig;
  EXPECT_EQ(rig.send_image(8000), 8000u);
}

TEST(ImageDistill, LoadedLinkShrinksImages) {
  ImageRig rig;
  rig.load_segment(0.75);
  std::size_t got = rig.send_image(8000);
  EXPECT_EQ(got, 2000u);  // quality 4 at >=70% load
}

TEST(ImageDistill, SaturatedLinkShrinksHarder) {
  ImageRig rig;
  rig.load_segment(0.95);
  std::size_t got = rig.send_image(8000);
  EXPECT_EQ(got, 1000u);  // quality 8 at >=90% load
}

TEST(ImageDistill, PrimitiveSemantics) {
  planp::NullEnv env;
  auto checked = planp::typecheck(planp::parse(
      "val img : blob = blobFromString(\"abcdefgh\")\n"
      "val half : int = blobLen(distillImage(img, 2))\n"
      "val full : int = blobLen(distillImage(img, 1))\n"
      "val bad : int = try blobLen(distillImage(img, 99)) with -1"));
  planp::Interp interp(checked, env);
  EXPECT_EQ(interp.global(1).as_int(), 4);
  EXPECT_EQ(interp.global(2).as_int(), 8);
  EXPECT_EQ(interp.global(3).as_int(), -1);
}

}  // namespace
}  // namespace asp::apps
