// The audio broadcasting experiment of paper §3.1 (Figures 5, 6, 7).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/audio/audio.hpp"
#include "net/network.hpp"
#include "runtime/engine.hpp"

namespace asp::apps {

/// One sample of the Figure 6 time series.
struct AudioSample {
  double t_sec;
  double audio_kbps;   // audio traffic on the client segment
  double load_kbps;    // generator traffic
  int level;           // quality level at the client (-1: none seen)
};

struct AudioRunResult {
  std::vector<AudioSample> series;  // Figure 6
  int silent_periods = 0;           // Figure 7
  int silent_ticks = 0;
  int level_switches = 0;  // on-the-wire quality changes seen by the client
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
};

/// A (time, offered load) step schedule for the load generator.
struct LoadStep {
  double at_sec;
  double rate_bps;
};

/// Which router adaptation policy to install (paper §3.1: strategies are
/// swapped by swapping the ASP).
enum class AudioPolicy {
  kThreshold,   // the paper's policy: a pure function of measured load
  kHysteresis,  // extension: upgrade only after a sustained calm period
};

/// The Figure 5 topology: source --(100 Mb link)--> router --(10 Mb
/// segment)--> {audio client, load generator, sink}. ASPs are installed in
/// the router and the client when `adaptation` is true.
class AudioExperiment {
 public:
  explicit AudioExperiment(bool adaptation,
                           AudioPolicy policy = AudioPolicy::kThreshold);

  /// Runs for `duration_sec` with the given load schedule, sampling every
  /// `sample_period_sec`.
  AudioRunResult run(double duration_sec, const std::vector<LoadStep>& schedule,
                     double sample_period_sec = 1.0);

  asp::net::Network& network() { return net_; }
  asp::runtime::AspRuntime* router_runtime() { return router_rt_.get(); }

  /// The paper's Figure 6 load schedule: no load, then large at 100 s,
  /// medium at 220 s, small at 340 s (scaled to a 10 Mb/s segment).
  static std::vector<LoadStep> figure6_schedule();

 private:
  asp::net::Network net_;
  asp::net::Node* source_node_;
  asp::net::Node* router_node_;
  asp::net::Node* client_node_;
  asp::net::Node* loadgen_node_;
  asp::net::Node* sink_node_;
  asp::net::EthernetSegment* segment_;

  std::unique_ptr<AudioSource> source_;
  std::unique_ptr<AudioClient> client_;
  std::unique_ptr<LoadGenerator> loadgen_;
  std::unique_ptr<asp::runtime::AspRuntime> router_rt_;
  std::unique_ptr<asp::runtime::AspRuntime> client_rt_;
};

}  // namespace asp::apps
