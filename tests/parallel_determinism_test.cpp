// The determinism contract (DESIGN.md §6f): with the same seeds, a run under
// ParallelExecutor with N shards produces byte-identical results to the
// serial run — same per-app statistics, same per-cause drop counters. These
// are the paper's own experiments, re-run sharded and compared field by
// field against the single-queue baseline.
#include <gtest/gtest.h>

#include "apps/audio/experiment.hpp"
#include "apps/http/experiment.hpp"
#include "net/exec.hpp"
#include "net/network.hpp"

namespace asp::apps {
namespace {

using asp::net::Impairments;
using asp::net::ParallelExecutor;
using asp::net::seconds;

struct AudioOutcome {
  AudioRunResult result;
  std::uint64_t dropped_loss = 0, dropped_queue = 0, delivered = 0;
};

// The §3.1 audio chaos scenario: 10% random loss on the client LAN. The LAN
// is a segment (never cut), so its RNG stream is shard-confined; the cut
// source->router uplink carries the stream across shards.
AudioOutcome run_audio(int shards) {
  AudioExperiment exp(/*adaptation=*/true);
  asp::net::Medium* lan = exp.network().find_medium("client-lan");
  EXPECT_NE(lan, nullptr);
  Impairments imp;
  imp.loss_rate = 0.10;
  imp.seed = 41;
  lan->set_impairments(imp);

  std::unique_ptr<ParallelExecutor> exec;
  if (shards > 1) {
    exec = std::make_unique<ParallelExecutor>(exp.network(), shards);
    EXPECT_EQ(exec->shard_count(), 2) << "audio topology has two islands";
  }
  AudioOutcome out;
  out.result = exp.run(10.0, {{0.0, 0.0}});
  out.dropped_loss = lan->dropped_loss();
  out.dropped_queue = lan->dropped_queue();
  out.delivered = lan->delivered_packets();
  return out;
}

TEST(ParallelDeterminism, AudioChaosShardedEqualsSerial) {
  AudioOutcome serial = run_audio(1);
  AudioOutcome sharded = run_audio(4);  // capped to the 2 islands

  EXPECT_EQ(serial.result.frames_sent, sharded.result.frames_sent);
  EXPECT_EQ(serial.result.frames_received, sharded.result.frames_received);
  EXPECT_EQ(serial.result.silent_periods, sharded.result.silent_periods);
  EXPECT_EQ(serial.result.silent_ticks, sharded.result.silent_ticks);
  EXPECT_EQ(serial.result.level_switches, sharded.result.level_switches);
  EXPECT_EQ(serial.dropped_loss, sharded.dropped_loss);
  EXPECT_EQ(serial.dropped_queue, sharded.dropped_queue);
  EXPECT_EQ(serial.delivered, sharded.delivered);
  ASSERT_EQ(serial.result.series.size(), sharded.result.series.size());
  for (std::size_t i = 0; i < serial.result.series.size(); ++i) {
    const AudioSample& s = serial.result.series[i];
    const AudioSample& p = sharded.result.series[i];
    EXPECT_EQ(s.audio_kbps, p.audio_kbps) << "t=" << s.t_sec;
    EXPECT_EQ(s.load_kbps, p.load_kbps) << "t=" << s.t_sec;
    EXPECT_EQ(s.level, p.level) << "t=" << s.t_sec;
  }
  EXPECT_GT(serial.dropped_loss, 0u) << "the chaos scenario must actually drop";
  EXPECT_GT(serial.delivered, 0u);
}

struct HttpOutcome {
  HttpRunResult result;
  std::uint64_t lan_loss = 0, lan_queue = 0, lan_unaddressed = 0;
  std::uint64_t link_queue = 0, link_loss = 0;
  std::uint64_t delivered = 0;
};

// The §3.2 cluster under 5% server-LAN loss. Each client machine hangs off
// its own clean 1 ms access link, so with 3 machines the topology splits
// into 4 islands (clients + server complex) — a real shards=4 run.
HttpOutcome run_http(int shards) {
  HttpExperiment::Options opts;
  opts.config = HttpConfig::kAspGateway;
  opts.client_machines = 3;
  opts.processes_per_machine = 2;
  opts.trace_accesses = 400;

  HttpExperiment exp(opts);
  asp::net::Medium* lan = exp.network().find_medium("server-lan");
  EXPECT_NE(lan, nullptr);
  Impairments imp;
  imp.loss_rate = 0.05;
  imp.seed = 43;
  lan->set_impairments(imp);

  std::unique_ptr<ParallelExecutor> exec;
  if (shards > 1) {
    exec = std::make_unique<ParallelExecutor>(exp.network(), shards);
    EXPECT_EQ(exec->island_count(), 4);
    EXPECT_EQ(exec->shard_count(), shards);
  }

  HttpOutcome out;
  out.result = exp.run(5.0);
  out.lan_loss = lan->dropped_loss();
  out.lan_queue = lan->dropped_queue();
  out.lan_unaddressed = lan->dropped_unaddressed();
  out.delivered = lan->delivered_packets();
  for (const auto& m : exp.network().media()) {
    if (m.get() == lan) continue;
    out.link_queue += m->dropped_queue();
    out.link_loss += m->dropped_loss();
    out.delivered += m->delivered_packets();
  }
  return out;
}

TEST(ParallelDeterminism, HttpClusterShardedEqualsSerial) {
  HttpOutcome serial = run_http(1);
  HttpOutcome sharded = run_http(4);

  EXPECT_EQ(serial.result.completed, sharded.result.completed);
  EXPECT_EQ(serial.result.failed, sharded.result.failed);
  EXPECT_EQ(serial.result.mean_latency_ms, sharded.result.mean_latency_ms);
  EXPECT_EQ(serial.lan_loss, sharded.lan_loss);
  EXPECT_EQ(serial.lan_queue, sharded.lan_queue);
  EXPECT_EQ(serial.lan_unaddressed, sharded.lan_unaddressed);
  EXPECT_EQ(serial.link_queue, sharded.link_queue);
  EXPECT_EQ(serial.link_loss, sharded.link_loss);
  EXPECT_EQ(serial.delivered, sharded.delivered);
  EXPECT_GT(serial.lan_loss, 0u);
  EXPECT_GT(serial.result.completed, 50u);
}

}  // namespace
}  // namespace asp::apps
