// §2.1: cost of the download-time safety analyses.
//
// The paper argues verification is cheap: termination explores ~r*d*2^d
// abstract states and duplication reaches a fix-point in a handful of
// iterations. This bench measures the full analysis on every ASP and prints
// the explored state counts.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "apps/asp_files.hpp"
#include "bench/harness.hpp"
#include "planp/analysis.hpp"
#include "planp/parser.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace asp;

struct Prog {
  const char* name;
  std::string source;
};

std::vector<Prog> programs() {
  return {
      {"audio-router", apps::asp_source("audio_router")},
      {"audio-client", apps::asp_source("audio_client")},
      {"http-gateway", apps::asp_source("http_gateway")},
      {"mpeg-monitor", apps::asp_source("mpeg_monitor")},
      {"mpeg-capture", apps::asp_source("mpeg_capture")},
  };
}

void print_table() {
  std::printf("\n=== Verifier: analysis results per ASP ===\n");
  std::printf("%-14s %8s %10s %6s %6s %6s %6s\n", "program", "states", "fixpoint",
              "term", "deliv", "dup", "gate");
  for (const Prog& p : programs()) {
    planp::AnalysisReport r =
        planp::analyze(planp::typecheck(planp::parse(p.source)));
    std::printf("%-14s %8d %10d %6s %6s %6s %6s\n", p.name, r.states_explored,
                r.fixpoint_iterations, r.global_termination ? "yes" : "no",
                r.guaranteed_delivery ? "yes" : "no",
                r.linear_duplication ? "yes" : "no",
                r.accepted() ? "accept" : "auth");
  }
  std::printf("('auth' = rejected by the conservative gate, loadable by "
              "authenticated users, paper 2.1)\n\n");
}

void BM_Analyze(benchmark::State& state) {
  auto progs = programs();
  const Prog& p = progs[static_cast<std::size_t>(state.range(0))];
  planp::CheckedProgram checked = planp::typecheck(planp::parse(p.source));
  for (auto _ : state) {
    benchmark::DoNotOptimize(planp::analyze(checked));
  }
  state.SetLabel(p.name);
}
BENCHMARK(BM_Analyze)->DenseRange(0, 4);

void BM_ParseAndCheck(benchmark::State& state) {
  auto progs = programs();
  const Prog& p = progs[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(planp::typecheck(planp::parse(p.source)));
  }
  state.SetLabel(p.name);
}
BENCHMARK(BM_ParseAndCheck)->DenseRange(0, 4);

}  // namespace

int main(int argc, char** argv) {
  asp::bench::parse_and_strip_options(argc, argv);  // shared flags first
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  asp::obs::write_bench_json("verifier");
  return 0;
}
