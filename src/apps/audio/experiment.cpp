#include "apps/audio/experiment.hpp"

#include "apps/asp_files.hpp"

namespace asp::apps {

using asp::net::ip;
using asp::net::millis;
using asp::net::seconds;

namespace {
const asp::net::Ipv4Addr kGroup = ip("224.1.1.1");
}

AudioExperiment::AudioExperiment(bool adaptation, AudioPolicy policy) {
  source_node_ = &net_.add_node("audio-source");
  router_node_ = &net_.add_router("router");
  client_node_ = &net_.add_node("audio-client");
  loadgen_node_ = &net_.add_node("load-generator");
  sink_node_ = &net_.add_node("sink");

  // Source to router: fast point-to-point uplink.
  net_.link(*source_node_, ip("10.0.1.1"), *router_node_, ip("10.0.1.254"), 100e6,
            millis(1));
  // The contended client segment: 10 Mb/s Ethernet.
  segment_ = &net_.segment("client-lan", 10e6, asp::net::micros(50));
  net_.attach(*router_node_, *segment_, ip("192.168.1.254"));
  net_.attach(*client_node_, *segment_, ip("192.168.1.1"));
  net_.attach(*loadgen_node_, *segment_, ip("192.168.1.2"));
  net_.attach(*sink_node_, *segment_, ip("192.168.1.3"));

  // Multicast plumbing: source -> uplink; router -> client segment.
  source_node_->add_mroute(kGroup, {0});
  router_node_->add_mroute(kGroup, {1});
  source_node_->routes().add_default(0);

  source_ = std::make_unique<AudioSource>(*source_node_, kGroup);
  client_ = std::make_unique<AudioClient>(*client_node_, kGroup);
  loadgen_ = std::make_unique<LoadGenerator>(*loadgen_node_, sink_node_->addr());

  if (adaptation) {
    router_rt_ = std::make_unique<asp::runtime::AspRuntime>(*router_node_);
    router_rt_->set_monitored_medium(segment_);
    router_rt_->install(asp_source(policy == AudioPolicy::kThreshold
                                       ? "audio_router"
                                       : "audio_router_hysteresis"));

    client_rt_ = std::make_unique<asp::runtime::AspRuntime>(*client_node_);
    client_rt_->install(asp_source("audio_client"));
  }
}

std::vector<LoadStep> AudioExperiment::figure6_schedule() {
  return {
      {0.0, 0.0},       // quiet segment: full quality
      {100.0, 9.7e6},   // large load: drop to 8-bit mono
      {220.0, 8.35e6},  // medium load: hovers around the level-2 threshold
      {340.0, 7.0e6},   // small load: 16-bit mono
  };
}

AudioRunResult AudioExperiment::run(double duration_sec,
                                    const std::vector<LoadStep>& schedule,
                                    double sample_period_sec) {
  AudioRunResult result;

  source_->start();
  client_->start();
  loadgen_->start();
  // Each helper event is scheduled on the queue of the node whose state it
  // touches, so a parallel run keeps them shard-local (client, load-gen and
  // sink all share the client-lan island).
  for (const LoadStep& step : schedule) {
    loadgen_node_->events().schedule_at(
        seconds(step.at_sec), [this, r = step.rate_bps] { loadgen_->set_rate_bps(r); });
  }

  // Generator-rate meter for reporting.
  auto gen_meter = std::make_shared<asp::net::BandwidthMeter>(asp::net::kNsPerSec / 2);
  sink_node_->add_rx_tap(
      [this, gen_meter](const asp::net::Packet& p, const asp::net::Interface&) {
        if (p.udp && p.udp->dport == 9)
          gen_meter->record(sink_node_->events().now(), p.wire_size());
      });

  double t = sample_period_sec;
  while (t <= duration_sec + 1e-9) {
    client_node_->events().schedule_at(seconds(t), [this, t, gen_meter, &result] {
      result.series.push_back(AudioSample{
          t,
          client_->wire_rate_bps() / 1000.0,
          gen_meter->rate_bps(client_node_->events().now()) / 1000.0,
          client_->last_level(),
      });
    });
    t += sample_period_sec;
  }

  net_.run_until(seconds(duration_sec));

  result.silent_periods = client_->silent_periods();
  result.silent_ticks = client_->silent_ticks();
  result.level_switches = client_->level_switches();
  result.frames_sent = source_->frames_sent();
  result.frames_received = client_->frames_received();
  return result;
}

}  // namespace asp::apps
