// Batched-vs-single dispatch equivalence (DESIGN.md §6c).
//
// The batch drain's contract is that batching is purely mechanical: any
// batch limit (including 1, which disables batching) replays the identical
// simulation — same traces, same per-cause drop counters, byte for byte.
// These tests sweep EventQueue's process-default batch limit through
// 1/4/32 and replay the chaos scenarios from the determinism suite (audio
// and HTTP, impairments on), serial and sharded, comparing every outcome
// field against the batch=1 serial baseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/audio/experiment.hpp"
#include "apps/http/experiment.hpp"
#include "net/event.hpp"
#include "net/exec.hpp"
#include "net/network.hpp"

namespace asp::apps {
namespace {

using asp::net::EventQueue;
using asp::net::Impairments;
using asp::net::PacketBatch;
using asp::net::ParallelExecutor;

// Networks snapshot the default batch limit at queue construction, so the
// limit must be set before the experiment is built and restored afterwards
// (other tests rely on the process default).
struct ScopedBatchLimit {
  std::size_t saved;
  explicit ScopedBatchLimit(std::size_t n) : saved(EventQueue::default_batch_limit()) {
    EventQueue::set_default_batch_limit(n);
  }
  ~ScopedBatchLimit() { EventQueue::set_default_batch_limit(saved); }
};

constexpr std::size_t kBatchLimits[] = {1, 4, 32};
constexpr int kShardCounts[] = {1, 4};

// --- audio chaos scenario (§3.1, 10% loss on the client LAN) -----------------

struct AudioOutcome {
  AudioRunResult result;
  std::uint64_t dropped_loss = 0, dropped_queue = 0, delivered = 0;

  bool operator==(const AudioOutcome& o) const {
    if (result.frames_sent != o.result.frames_sent) return false;
    if (result.frames_received != o.result.frames_received) return false;
    if (result.silent_periods != o.result.silent_periods) return false;
    if (result.silent_ticks != o.result.silent_ticks) return false;
    if (result.level_switches != o.result.level_switches) return false;
    if (dropped_loss != o.dropped_loss) return false;
    if (dropped_queue != o.dropped_queue) return false;
    if (delivered != o.delivered) return false;
    if (result.series.size() != o.result.series.size()) return false;
    for (std::size_t i = 0; i < result.series.size(); ++i) {
      const AudioSample& a = result.series[i];
      const AudioSample& b = o.result.series[i];
      if (a.audio_kbps != b.audio_kbps || a.load_kbps != b.load_kbps ||
          a.level != b.level) {
        return false;
      }
    }
    return true;
  }
};

AudioOutcome run_audio(std::size_t batch_limit, int shards) {
  ScopedBatchLimit scoped(batch_limit);
  AudioExperiment exp(/*adaptation=*/true);
  asp::net::Medium* lan = exp.network().find_medium("client-lan");
  EXPECT_NE(lan, nullptr);
  Impairments imp;
  imp.loss_rate = 0.10;
  imp.seed = 41;
  lan->set_impairments(imp);

  std::unique_ptr<ParallelExecutor> exec;
  if (shards > 1) exec = std::make_unique<ParallelExecutor>(exp.network(), shards);

  AudioOutcome out;
  out.result = exp.run(10.0, {{0.0, 0.0}});
  out.dropped_loss = lan->dropped_loss();
  out.dropped_queue = lan->dropped_queue();
  out.delivered = lan->delivered_packets();
  return out;
}

TEST(BatchEquivalence, AudioChaosIdenticalAcrossBatchSizesAndShards) {
  AudioOutcome baseline = run_audio(/*batch_limit=*/1, /*shards=*/1);
  EXPECT_GT(baseline.dropped_loss, 0u) << "the chaos scenario must actually drop";
  for (std::size_t limit : kBatchLimits) {
    for (int shards : kShardCounts) {
      if (limit == 1 && shards == 1) continue;  // the baseline itself
      AudioOutcome run = run_audio(limit, shards);
      EXPECT_TRUE(run == baseline)
          << "audio trace diverged at batch_limit=" << limit
          << " shards=" << shards;
    }
  }
}

// --- http chaos scenario (§3.2, 5% loss on the server LAN) -------------------

struct HttpOutcome {
  HttpRunResult result;
  std::uint64_t lan_loss = 0, lan_queue = 0, lan_unaddressed = 0;
  std::uint64_t link_queue = 0, link_loss = 0;
  std::uint64_t delivered = 0;

  bool operator==(const HttpOutcome& o) const {
    return result.completed == o.result.completed &&
           result.failed == o.result.failed &&
           result.mean_latency_ms == o.result.mean_latency_ms &&
           lan_loss == o.lan_loss && lan_queue == o.lan_queue &&
           lan_unaddressed == o.lan_unaddressed && link_queue == o.link_queue &&
           link_loss == o.link_loss && delivered == o.delivered;
  }
};

HttpOutcome run_http(std::size_t batch_limit, int shards) {
  ScopedBatchLimit scoped(batch_limit);
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
  if (shards > 1) exec = std::make_unique<ParallelExecutor>(exp.network(), shards);

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

TEST(BatchEquivalence, HttpChaosIdenticalAcrossBatchSizesAndShards) {
  HttpOutcome baseline = run_http(/*batch_limit=*/1, /*shards=*/1);
  EXPECT_GT(baseline.lan_loss, 0u);
  EXPECT_GT(baseline.result.completed, 50u);
  for (std::size_t limit : kBatchLimits) {
    for (int shards : kShardCounts) {
      if (limit == 1 && shards == 1) continue;
      HttpOutcome run = run_http(limit, shards);
      EXPECT_TRUE(run == baseline)
          << "http counters diverged at batch_limit=" << limit
          << " shards=" << shards;
    }
  }
}

// --- batch drain mechanics ----------------------------------------------------

// A sink that records each batch it receives as (key, sizes, payload bytes)
// so tests can see exactly how the drain grouped deliveries.
struct RecordingSink : asp::net::DeliverySink {
  struct Got {
    std::uint32_t key;
    std::vector<std::uint8_t> first_bytes;  // payload[0] of each member
  };
  std::vector<Got> batches;

  void deliver_batch(std::uint32_t key, PacketBatch&& batch) override {
    Got g{key, {}};
    for (std::size_t i = 0; i < batch.size(); ++i) {
      g.first_bytes.push_back(batch[i].payload.empty() ? 0 : batch[i].payload[0]);
    }
    batches.push_back(std::move(g));
    batch.clear();
  }
};

asp::net::PacketBatch::Box boxed(std::uint8_t marker) {
  asp::net::Packet p = asp::net::Packet::make_udp(
      asp::net::ip("10.0.0.1"), asp::net::ip("10.0.0.2"), 1, 2, {marker});
  return asp::net::packet_boxes().box(std::move(p));
}

TEST(BatchEquivalence, DrainGroupsSameSinkKeyAndTime) {
  ScopedBatchLimit limit(32);
  EventQueue q;
  RecordingSink sink;
  for (std::uint8_t m = 0; m < 5; ++m) {
    q.schedule_delivery(/*t=*/100, /*sched=*/0, /*rank=*/m, sink, /*key=*/7,
                        boxed(m));
  }
  q.run();
  ASSERT_EQ(sink.batches.size(), 1u) << "one batch for 5 same-(sink,key,t) deliveries";
  EXPECT_EQ(sink.batches[0].key, 7u);
  EXPECT_EQ(sink.batches[0].first_bytes, (std::vector<std::uint8_t>{0, 1, 2, 3, 4}));
}

TEST(BatchEquivalence, DrainSplitsOnKeyTimeAndLimit) {
  ScopedBatchLimit limit(2);
  EventQueue q;
  RecordingSink sink;
  // Same (sink, key, t): limit 2 splits 3 deliveries into batches of 2 + 1.
  for (std::uint8_t m = 0; m < 3; ++m) {
    q.schedule_delivery(100, 0, m, sink, 1, boxed(m));
  }
  // Different key at the same time: never grouped with the above.
  q.schedule_delivery(100, 0, 3, sink, 2, boxed(10));
  // Same key, later time: its own batch.
  q.schedule_delivery(200, 0, 0, sink, 1, boxed(20));
  q.run();
  ASSERT_EQ(sink.batches.size(), 4u);
  EXPECT_EQ(sink.batches[0].first_bytes, (std::vector<std::uint8_t>{0, 1}));
  EXPECT_EQ(sink.batches[1].first_bytes, (std::vector<std::uint8_t>{2}));
  EXPECT_EQ(sink.batches[2].key, 2u);
  EXPECT_EQ(sink.batches[3].first_bytes, (std::vector<std::uint8_t>{20}));
}

}  // namespace
}  // namespace asp::apps
