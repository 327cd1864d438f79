// Figure 3: code generation time (ms) for the paper's PLAN-P programs.
//
// The paper reports 6.1-33.9 ms for 28-161 line programs on a Sun Ultra-1;
// our run-time specializer assembles pre-decoded templates, so absolute times
// are far smaller on modern hardware — the property to reproduce is that
// generation is linear in program size and trivially cheap at download time.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "apps/asp_files.hpp"
#include "bench/harness.hpp"
#include "planp/jit.hpp"
#include "planp/parser.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace asp;

struct Prog {
  const char* name;
  const char* asp;  // asps/<asp>.planp
  std::string source;
};

std::vector<Prog> programs() {
  const auto prog = [](const char* name, const char* asp) {
    return Prog{name, asp, apps::asp_source(asp)};
  };
  return {
      prog("Audio Broadcasting (router)", "audio_router"),
      prog("Audio Broadcasting (client)", "audio_client"),
      prog("Extensible Web Server", "http_gateway"),
      prog("MPEG (monitor)", "mpeg_monitor"),
      prog("MPEG (client)", "mpeg_capture"),
  };
}

// A single cold lowering mostly times first-touch effects, and the first
// program in the table pays the most of them, so the codegen column is the
// median of repeated lowerings after a warm-up, exported as
// bench/fig3_codegen/<asp>/codegen_ms.
void print_table() {
  std::printf("\n=== Figure 3: code generation time for PLAN-P programs ===\n");
  std::printf("%-30s %8s %12s %14s %12s\n", "program", "lines", "unfused", "templates",
              "codegen(ms)");
  for (const Prog& p : programs()) {
    planp::CheckedProgram checked = planp::typecheck(planp::parse(p.source));
    planp::CodegenStats s;
    const double ms = obs::record_stabilized_gauge(
        std::string("bench/fig3_codegen/") + p.asp + "/codegen_ms",
        [&] {
          planp::JitProgram code(checked);
          s = code.stats;
          return s.generation_ms;
        },
        /*warmup=*/10, /*reps=*/51);
    std::printf("%-30s %8d %12zu %14zu %12.4f\n", p.name, s.source_lines,
                s.input_instrs, s.output_instrs, ms);
  }
  std::printf("(paper, Sun Ultra-1 170MHz: 28..161 lines -> 6.1..33.9 ms)\n\n");
}

void BM_CodegenOnly(benchmark::State& state) {
  // Pure code generation cost: checked AST -> fused, patched templates (what
  // happens at download time after the program has been verified).
  auto progs = programs();
  const Prog& p = progs[static_cast<std::size_t>(state.range(0))];
  planp::CheckedProgram checked = planp::typecheck(planp::parse(p.source));
  for (auto _ : state) {
    planp::JitProgram code(checked);
    benchmark::DoNotOptimize(&code);
  }
  state.SetLabel(p.name);
}
BENCHMARK(BM_CodegenOnly)->DenseRange(0, 4);

void BM_FullDownloadPipeline(benchmark::State& state) {
  // Everything a router does on download: parse, check, lower to templates,
  // instantiate.
  auto progs = programs();
  const Prog& p = progs[static_cast<std::size_t>(state.range(0))];
  planp::NullEnv env;
  for (auto _ : state) {
    planp::CheckedProgram checked = planp::typecheck(planp::parse(p.source));
    planp::JitEngine jit(checked, env);
    benchmark::DoNotOptimize(&jit);
  }
  state.SetLabel(p.name);
}
BENCHMARK(BM_FullDownloadPipeline)->DenseRange(0, 4);

}  // namespace

int main(int argc, char** argv) {
  asp::bench::parse_and_strip_options(argc, argv);  // shared flags first
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  asp::obs::write_bench_json("fig3_codegen");
  return 0;
}
