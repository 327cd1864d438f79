// Quickstart: write an ASP, verify it, JIT it into a router, watch it work.
//
// Builds a 3-node network (client -- router -- server), downloads a tiny
// port-redirect ASP into the router, and shows the full pipeline: parse ->
// typecheck -> safety analyses -> run-time specialization -> execution.
#include <cstdio>

#include "net/network.hpp"
#include "runtime/engine.hpp"

using namespace asp;

int main() {
  // 1. The protocol, in PLAN-P. It redirects UDP port 7000 to port 7777 and
  //    forwards everything else untouched.
  const std::string source = R"(
-- my first ASP: redirect UDP port 7000 to 7777
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  if udpDst(#2 p) = 7000 then
    (OnRemote(network, (#1 p, udpDstSet(#2 p, 7777), #3 p)); (ps + 1, ss))
  else
    (OnRemote(network, p); (ps, ss))
)";

  // 2. A small network: client -- router -- server.
  net::Network network;
  net::Node& client = network.add_node("client");
  net::Node& router = network.add_router("router");
  net::Node& server = network.add_node("server");
  network.link(client, net::ip("10.0.1.1"), router, net::ip("10.0.1.254"), 10e6,
               net::millis(1));
  network.link(router, net::ip("10.0.2.254"), server, net::ip("10.0.2.1"), 10e6,
               net::millis(1));
  client.routes().add_default(0);
  server.routes().add_default(0);

  // 3. Download the ASP into the router. install() runs the whole pipeline
  //    and throws if the program fails type checking or the safety gate.
  runtime::AspRuntime rt(router);
  const planp::Protocol& proto = rt.install(source);
  const planp::AnalysisReport& report = proto.report();
  std::printf("verification: termination=%s delivery=%s duplication=%s (%d states)\n",
              report.global_termination ? "proved" : "unproved",
              report.guaranteed_delivery ? "proved" : "unproved",
              report.linear_duplication ? "proved" : "unproved",
              report.states_explored);
  if (const planp::CodegenStats* s = proto.codegen_stats()) {
    std::printf("JIT: %d source lines -> %zu templates in %.3f ms\n",
                s->source_lines, s->output_instrs, s->generation_ms);
  }

  // 4. Applications on the end hosts: one listener on the original port,
  //    one on the redirected port.
  int at_7000 = 0, at_7777 = 0;
  net::UdpSocket original(server, 7000, [&](const net::Packet&) { ++at_7000; });
  net::UdpSocket redirected(server, 7777, [&](const net::Packet&) { ++at_7777; });

  net::UdpSocket sender(client, 9999, nullptr);
  for (int i = 0; i < 5; ++i) {
    sender.send_to(server.addr(), 7000, net::bytes_of("hello " + std::to_string(i)));
  }
  sender.send_to(server.addr(), 8888, net::bytes_of("other traffic"));

  network.run();

  std::printf("packets at port 7000: %d (expected 0 - redirected)\n", at_7000);
  std::printf("packets at port 7777: %d (expected 5)\n", at_7777);
  asp::runtime::RuntimeStats stats = rt.stats();
  std::printf("ASP handled %llu packets, passed %llu through\n",
              static_cast<unsigned long long>(stats.packets_handled),
              static_cast<unsigned long long>(stats.packets_passed));
  return at_7777 == 5 ? 0 : 1;
}
