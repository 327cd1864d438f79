// Parallel executor scaling: wall-clock time for the paper's two big
// workloads — the §3.2 HTTP cluster (Figure 8 topology, 8 client machines =
// 9 islands) and the §3.1 audio broadcast (2 islands) — run serial and at
// 2/4/8 shards, plus the generated 10^4-node fat-tree scenario
// (scenarios/fat_tree_10k.scn, 1445 islands) swept at 4/16/64 shards.
// Every configuration carries a determinism cross-check: each shard count
// must reproduce the serial counters (for the scenario, the byte-exact
// metrics JSON), or the numbers are meaningless.
//
// Speedup depends on the host, so it is recorded, never gated: the windowed
// loop only helps when hardware_concurrency > 1, and a shard count above the
// core count just adds barrier overhead. The JSON marks both conditions —
// `hw_limited` globally (hw <= 1: every speedup gauge is noise) and
// per-row `hw_limited` (shards > hw) — so EXPERIMENTS.md tables can filter.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "apps/audio/experiment.hpp"
#include "apps/http/experiment.hpp"
#include "bench/harness.hpp"
#include "net/exec.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"

#ifndef ASP_SCENARIO_DIR
#define ASP_SCENARIO_DIR "scenarios"
#endif

namespace {

double wall_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct HttpRun {
  double ms = 0;
  std::uint64_t completed = 0;
  std::uint64_t windows = 0, cross = 0;
  int shards = 1;
};

HttpRun run_http(int shards, double duration_s) {
  using namespace asp::apps;
  HttpExperiment::Options opts;
  opts.config = HttpConfig::kAspGateway;
  opts.client_machines = 8;
  opts.processes_per_machine = 4;
  opts.trace_accesses = 10'000;
  HttpExperiment exp(opts);

  std::unique_ptr<asp::net::ParallelExecutor> exec;
  if (shards > 1)
    exec = std::make_unique<asp::net::ParallelExecutor>(exp.network(), shards);

  auto t0 = std::chrono::steady_clock::now();
  HttpRunResult r = exp.run(duration_s);
  HttpRun out;
  out.ms = wall_ms(t0);
  out.completed = r.completed;
  if (exec) {
    out.windows = exec->stats().windows;
    out.cross = exec->stats().cross_messages;
    out.shards = exec->shard_count();
  }
  return out;
}

struct AudioRun {
  double ms = 0;
  std::uint64_t received = 0;
  int shards = 1;
};

AudioRun run_audio(int shards) {
  using namespace asp::apps;
  AudioExperiment exp(/*adaptation=*/true);
  std::unique_ptr<asp::net::ParallelExecutor> exec;
  if (shards > 1)
    exec = std::make_unique<asp::net::ParallelExecutor>(exp.network(), shards);
  auto t0 = std::chrono::steady_clock::now();
  AudioRunResult r = exp.run(120.0, AudioExperiment::figure6_schedule());
  AudioRun out;
  out.ms = wall_ms(t0);
  out.received = r.frames_received;
  if (exec) out.shards = exec->shard_count();
  return out;
}

struct ScenarioRun {
  double ms = 0;
  std::string json;
  std::uint64_t delivered = 0;
  std::uint64_t nodes = 0;
  std::uint64_t windows = 0, cross = 0;
  int shards = 1;
  int islands = 0;
};

ScenarioRun run_scenario(const asp::scenario::ScenarioConfig& cfg, int shards) {
  asp::scenario::Scenario sc(cfg);
  auto t0 = std::chrono::steady_clock::now();
  asp::scenario::ScenarioMetrics m = sc.run(shards);
  ScenarioRun out;
  out.ms = wall_ms(t0);
  out.json = m.to_json();
  out.delivered = m.delivered_packets;
  out.nodes = m.nodes;
  out.shards = m.shards;
  out.islands = m.islands;
  out.windows = m.windows;
  out.cross = m.cross_messages;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // --shards=N caps the sweeps (serial always runs as the baseline);
  // --duration=S sets the HTTP sim length. The audio run keeps its fixed
  // 120 s schedule — it exists to exercise the 2-island topology — and the
  // scenario sweep keeps the duration from the .scn file.
  const asp::bench::Options opts =
      asp::bench::parse_options(argc, argv, {.shards = 64, .duration_s = 10.0});
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("=== Parallel executor scaling (hardware threads: %u) ===\n\n", hw);
  asp::obs::registry().gauge("bench/parallel/hardware_concurrency").set(hw);
  // hw <= 1 also covers hardware_concurrency() == 0 ("unknown"). Speedups
  // are still recorded below, but the JSON says they carry no signal.
  const bool hw_limited = hw <= 1;
  asp::obs::registry().gauge("bench/parallel/hw_limited").set(hw_limited ? 1 : 0);
  if (hw_limited) {
    std::printf("NOTE: <= 1 hardware thread: speedup gauges are recorded for "
                "completeness but carry no scaling signal (hw_limited = 1).\n\n");
  }

  std::printf("HTTP cluster, 8 client machines (9 islands), %.0f s sim:\n",
              opts.duration_s);
  std::printf("%8s %10s %10s %10s %10s %10s\n", "shards", "wall ms", "speedup",
              "completed", "windows", "cross msg");
  double base = 0;
  std::uint64_t serial_completed = 0;
  bool deterministic = true;
  for (int s : {1, 2, 4, 8}) {
    if (s > opts.shards && s != 1) continue;
    HttpRun r = run_http(s, opts.duration_s);
    if (s == 1) {
      base = r.ms;
      serial_completed = r.completed;
    }
    deterministic = deterministic && r.completed == serial_completed;
    double speedup = base / r.ms;
    std::printf("%8d %10.1f %9.2fx %10llu %10llu %10llu\n", r.shards, r.ms, speedup,
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.cross));
    const std::string p = "bench/parallel/http/shards_" + std::to_string(s) + "/";
    asp::obs::registry().gauge(p + "wall_ms").set(r.ms);
    asp::obs::registry().gauge(p + "speedup").set(speedup);
    asp::obs::registry().gauge(p + "completed").set(static_cast<double>(r.completed));
  }

  std::printf("\nAudio broadcast (2 islands), 120 s sim:\n");
  std::printf("%8s %10s %10s %10s\n", "shards", "wall ms", "speedup", "frames rx");
  double abase = 0;
  std::uint64_t serial_rx = 0;
  for (int s : {1, 2}) {
    AudioRun r = run_audio(s);
    if (s == 1) {
      abase = r.ms;
      serial_rx = r.received;
    }
    deterministic = deterministic && r.received == serial_rx;
    double speedup = abase / r.ms;
    std::printf("%8d %10.1f %9.2fx %10llu\n", r.shards, r.ms, speedup,
                static_cast<unsigned long long>(r.received));
    const std::string p = "bench/parallel/audio/shards_" + std::to_string(s) + "/";
    asp::obs::registry().gauge(p + "wall_ms").set(r.ms);
    asp::obs::registry().gauge(p + "speedup").set(speedup);
  }

  // Generated internet-scale scenario: the checked-in 10^4-node fat-tree
  // with 10^5 closed-loop users. Serial is the baseline; the byte-exact
  // metrics JSON is the determinism witness at every shard count.
  asp::scenario::ScenarioConfig cfg;
  std::string scn_err;
  const std::string scn_path =
      std::string(ASP_SCENARIO_DIR) + "/fat_tree_10k.scn";
  if (!asp::scenario::load_scn_file(scn_path, cfg, scn_err)) {
    std::fprintf(stderr, "cannot load %s: %s\n", scn_path.c_str(), scn_err.c_str());
    return 1;
  }
  std::printf("\nGenerated scenario %s, %.0f ms sim:\n", cfg.name.c_str(),
              static_cast<double>(cfg.run.duration) / 1e6);
  std::printf("%8s %10s %10s %10s %10s %10s %10s %12s\n", "shards", "wall ms",
              "speedup", "delivered", "islands", "windows", "cross msg", "hw-limited");
  double sbase = 0;
  std::string serial_json;
  for (int s : {1, 4, 16, 64}) {
    if (s > opts.shards && s != 1) continue;
    ScenarioRun r = run_scenario(cfg, s);
    if (s == 1) {
      sbase = r.ms;
      serial_json = r.json;
      asp::obs::registry()
          .gauge("bench/parallel/scenario/nodes")
          .set(static_cast<double>(r.nodes));
    }
    if (r.islands > 0) {
      asp::obs::registry()
          .gauge("bench/parallel/scenario/islands")
          .set(static_cast<double>(r.islands));
    }
    deterministic = deterministic && r.json == serial_json;
    const double speedup = sbase / r.ms;
    const bool row_limited = hw_limited || static_cast<unsigned>(s) > hw;
    std::printf("%8d %10.1f %9.2fx %10llu %10d %10llu %10llu %12s\n", r.shards, r.ms,
                speedup, static_cast<unsigned long long>(r.delivered), r.islands,
                static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.cross), row_limited ? "yes" : "no");
    const std::string p =
        "bench/parallel/scenario/shards_" + std::to_string(s) + "/";
    asp::obs::registry().gauge(p + "wall_ms").set(r.ms);
    asp::obs::registry().gauge(p + "speedup").set(speedup);
    asp::obs::registry().gauge(p + "delivered").set(static_cast<double>(r.delivered));
    asp::obs::registry().gauge(p + "windows").set(static_cast<double>(r.windows));
    asp::obs::registry().gauge(p + "cross_messages").set(static_cast<double>(r.cross));
    asp::obs::registry().gauge(p + "hw_limited").set(row_limited ? 1 : 0);
  }
  std::printf("\ndeterminism cross-check: %s\n",
              deterministic ? "OK (all shard counts match serial)" : "FAILED");
  asp::obs::registry().gauge("bench/parallel/deterministic").set(deterministic ? 1 : 0);
  asp::obs::write_bench_json("parallel");
  return deterministic ? 0 : 1;
}
