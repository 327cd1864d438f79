// The point-to-point -> multipoint MPEG experiment of paper §3.3.
#pragma once

#include <memory>
#include <vector>

#include "apps/mpeg/mpeg.hpp"
#include "net/network.hpp"
#include "runtime/engine.hpp"

namespace asp::apps {

struct MpegRunResult {
  int clients = 0;
  int server_streams = 0;        // open streams at the server at steady state
  double server_egress_mbps = 0; // server uplink video bandwidth
  int clients_playing = 0;       // clients actually receiving video
  int clients_sharing = 0;       // clients fed by the capture ASP
  double min_client_mbps = 0;    // weakest client's receive rate
  double max_client_mbps = 0;
};

/// Topology: server --(100 Mb link)--> router --(10 Mb segment)--> {monitor
/// machine, N clients}. With sharing enabled, the monitor ASP runs
/// promiscuously on the monitor machine and each client runs the
/// reply/capture ASPs; the server is never modified.
class MpegExperiment {
 public:
  explicit MpegExperiment(bool sharing, int clients);
  ~MpegExperiment();

  /// All clients request the same file, staggered 300 ms apart; measures at
  /// `measure_at_sec` into the run.
  MpegRunResult run(double measure_at_sec = 10.0);

  asp::net::Network& network() { return net_; }
  MpegServer& server() { return *server_; }

 private:
  bool sharing_;
  int nclients_;
  asp::net::Network net_;
  asp::net::Node* server_node_ = nullptr;
  asp::net::Node* monitor_node_ = nullptr;
  std::vector<asp::net::Node*> client_nodes_;
  std::unique_ptr<MpegServer> server_;
  std::vector<std::unique_ptr<MpegClient>> clients_;
  std::unique_ptr<asp::runtime::AspRuntime> monitor_rt_;
  std::vector<std::unique_ptr<asp::runtime::AspRuntime>> client_rts_;
};

}  // namespace asp::apps
