// ASP deployment over the network itself (paper §5: protocol management).
//
// A management station pushes the audio-adaptation ASP to two routers it has
// never touched, watches one deployment be rejected by the verification
// gate, and overrides with an authenticated push — all over simulated TCP.
#include <cstdio>

#include "apps/asp_files.hpp"
#include "net/network.hpp"
#include "runtime/deploy.hpp"

using namespace asp;

int main() {
  net::Network network;
  net::Node& admin = network.add_node("admin");
  net::Node& r1 = network.add_router("router1");
  net::Node& r2 = network.add_router("router2");
  network.link(admin, net::ip("10.0.1.1"), r1, net::ip("10.0.1.254"), 10e6,
               net::millis(1));
  network.link(r1, net::ip("10.0.2.1"), r2, net::ip("10.0.2.254"), 10e6,
               net::millis(2));
  admin.routes().add_default(0);
  r1.routes().add_default(1);  // towards r2
  r2.routes().add_default(0);  // replies go back through r1

  runtime::AspRuntime rt1(r1), rt2(r2);
  runtime::DeployServer daemon1(rt1), daemon2(rt2);
  runtime::Deployer deployer(admin);

  auto report = [](const char* what) {
    return [what](const runtime::DeployResult& r) {
      if (r.ok) {
        std::printf("%-34s -> OK %d channel(s), codegen %.1f us\n", what,
                    r.channels, r.codegen_us);
      } else {
        std::printf("%-34s -> ERR %s\n", what, r.error.c_str());
      }
    };
  };

  // 1. Push the verified audio router ASP to both routers.
  deployer.deploy(r1.addr(), apps::asp_source("audio_router"),
                  report("audio ASP to router1"));
  deployer.deploy(net::ip("10.0.2.254"), apps::asp_source("audio_router"),
                  report("audio ASP to router2"));
  network.run_until(net::seconds(2));

  // 2. A buggy ping-pong protocol is stopped by the gate...
  const char* ping_pong = R"(
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  if ipDst(#1 p) = 10.0.0.1 then
    (OnRemote(network, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p)); (ps, ss))
  else
    (OnRemote(network, (ipDestSet(#1 p, 10.0.0.1), #2 p, #3 p)); (ps, ss))
)";
  deployer.deploy(r1.addr(), ping_pong, report("ping-pong (unauthenticated)"));
  network.run_until(net::seconds(4));

  // 3. ...unless the administrator authenticates (paper 2.1's escape hatch).
  runtime::Deployer::Options auth;
  auth.authenticated = true;
  deployer.deploy(r1.addr(), ping_pong, report("ping-pong (authenticated)"), auth);
  network.run_until(net::seconds(6));

  std::printf("\nrouter1: %d deployments, %d rejections\n", daemon1.deployments(),
              daemon1.rejections());
  std::printf("router2: %d deployments, %d rejections\n", daemon2.deployments(),
              daemon2.rejections());
  return 0;
}
