#include "apps/mpeg/experiment.hpp"

#include "apps/asp_files.hpp"

namespace asp::apps {

using asp::net::ip;
using asp::net::Ipv4Addr;
using asp::net::millis;
using asp::net::seconds;

MpegExperiment::MpegExperiment(bool sharing, int clients)
    : sharing_(sharing), nclients_(clients) {
  server_node_ = &net_.add_node("video-server");
  asp::net::Node& router = net_.add_router("router");
  net_.link(*server_node_, ip("10.0.1.1"), router, ip("10.0.1.254"), 100e6, millis(1));
  server_node_->routes().add_default(0);

  auto& lan = net_.segment("client-lan", 10e6, asp::net::micros(50));
  net_.attach(router, lan, ip("192.168.1.254"));

  monitor_node_ = &net_.add_node("monitor");
  asp::net::Interface& mon_if = net_.attach(*monitor_node_, lan, ip("192.168.1.100"));
  monitor_node_->routes().add_default(0, ip("192.168.1.254"));

  server_ = std::make_unique<MpegServer>(*server_node_);

  if (sharing_) {
    mon_if.set_promiscuous(true);
    monitor_rt_ = std::make_unique<asp::runtime::AspRuntime>(*monitor_node_);
    // The file's serverHost, ctrlPort and queryPort are this server's
    // address and MpegFormat's ports.
    monitor_rt_->install(asp_source("mpeg_monitor"));
  }

  for (int c = 0; c < nclients_; ++c) {
    asp::net::Node& n = net_.add_node("client" + std::to_string(c));
    asp::net::Interface& cif =
        net_.attach(n, lan, Ipv4Addr(192, 168, 1, static_cast<std::uint8_t>(c + 1)));
    n.routes().add_default(0, ip("192.168.1.254"));
    client_nodes_.push_back(&n);

    std::uint16_t vport = static_cast<std::uint16_t>(7000 + 10 * c);
    MpegClient::InstallCapture install = nullptr;
    if (sharing_) {
      cif.set_promiscuous(true);
      auto rt = std::make_unique<asp::runtime::AspRuntime>(n);
      rt->install(asp_source("mpeg_reply"));
      asp::runtime::AspRuntime* rt_raw = rt.get();
      client_rts_.push_back(std::move(rt));
      install = [rt_raw, vport](Ipv4Addr shared_client, std::uint16_t shared_vport) {
        rt_raw->uninstall();
        rt_raw->install(asp_source("mpeg_capture", {{"sharedClient", shared_client},
                                                    {"sharedPort", shared_vport},
                                                    {"myPort", vport}}));
      };
    }
    clients_.push_back(std::make_unique<MpegClient>(
        n, server_node_->addr(),
        sharing_ ? monitor_node_->addr() : Ipv4Addr{}, vport, std::move(install)));
  }
}

MpegExperiment::~MpegExperiment() = default;

MpegRunResult MpegExperiment::run(double measure_at_sec) {
  // Helper events run on the queue of the node whose state they touch, so a
  // parallel run keeps them shard-local: play()/client sampling on the LAN
  // shard, server sampling on the server's shard.
  for (int c = 0; c < nclients_; ++c) {
    client_nodes_[static_cast<std::size_t>(c)]->events().schedule_at(
        seconds(0.1 + 0.3 * c),
        [this, c] { clients_[static_cast<std::size_t>(c)]->play("movie.mpg"); });
  }

  MpegRunResult r;
  r.clients = nclients_;
  server_node_->events().schedule_at(seconds(measure_at_sec), [this, &r] {
    r.server_streams = server_->active_streams();
    r.server_egress_mbps = server_->egress_bps() / 1e6;
  });
  monitor_node_->events().schedule_at(seconds(measure_at_sec), [this, &r] {
    double lo = 1e18, hi = 0;
    for (auto& c : clients_) {
      if (c->playing()) ++r.clients_playing;
      if (c->sharing()) ++r.clients_sharing;
      double bps = c->receive_bps();
      lo = std::min(lo, bps);
      hi = std::max(hi, bps);
    }
    r.min_client_mbps = (clients_.empty() ? 0 : lo) / 1e6;
    r.max_client_mbps = hi / 1e6;
  });
  net_.run_until(seconds(measure_at_sec + 0.05));
  return r;
}

}  // namespace asp::apps
