// Ablation: what each ingredient of the run-time specializer buys.
//
// DESIGN.md calls out two design choices in the Tempo-analog: (i) typed,
// pre-decoded register templates with patched constants and typed primitive
// entry points over a packet read in place, (ii) superinstruction fusion
// (compare-and-branch, operations on an immediate). This bench isolates them:
//   interpreter -> JIT (no fusion)   : the value of compiling to typed
//                                      templates
//   JIT (no fusion) -> JIT (fusion)  : the value of fusion
#include <benchmark/benchmark.h>

#include "apps/asp_files.hpp"
#include "bench/harness.hpp"
#include "net/network.hpp"
#include "planp/interp.hpp"
#include "planp/jit.hpp"
#include "planp/parser.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace asp;
using planp::Value;

struct Fixture {
  Fixture() {
    checked = planp::typecheck(planp::parse(apps::asp_source("audio_router")));
    env.load_percent = 95;
    // As the runtime hands it to an engine: the interpreter's row includes
    // its decode.
    packet = net::Packet::make_udp(net::ip("10.0.1.1"), net::ip("224.1.1.1"), 5004, 5004,
                                   std::vector<std::uint8_t>(440));
    ps = Value::of_int(0);
    ss = Value::unit();
  }

  void pump(benchmark::State& state, planp::Engine& engine) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(engine.run_channel(0, ps, ss, packet));
      env.sends.clear();
    }
    state.SetItemsProcessed(state.iterations());
  }

  planp::NullEnv env;
  planp::CheckedProgram checked;
  net::Packet packet;
  Value ps, ss;
};

void BM_Ablation_Interp(benchmark::State& state) {
  Fixture fx;
  planp::Interp engine(fx.checked, fx.env);
  fx.pump(state, engine);
}
BENCHMARK(BM_Ablation_Interp);

void BM_Ablation_JitNoFusion(benchmark::State& state) {
  Fixture fx;
  planp::JitEngine engine(fx.checked, fx.env, /*fuse=*/false);
  fx.pump(state, engine);
}
BENCHMARK(BM_Ablation_JitNoFusion);

void BM_Ablation_JitFused(benchmark::State& state) {
  Fixture fx;
  planp::JitEngine engine(fx.checked, fx.env, /*fuse=*/true);
  fx.pump(state, engine);
}
BENCHMARK(BM_Ablation_JitFused);

// Template counts: fusion compresses the code (reported once as a counter).
void BM_Ablation_TemplateCounts(benchmark::State& state) {
  Fixture fx;
  const planp::JitProgram fused_code(fx.checked, true);
  const planp::JitProgram unfused_code(fx.checked, false);
  std::size_t fused = 0, unfused = 0;
  for (const auto& b : fused_code.channel_bodies) fused += b.code.size();
  for (const auto& b : unfused_code.channel_bodies) unfused += b.code.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fused);
  }
  state.counters["templates_fused"] = static_cast<double>(fused);
  state.counters["templates_unfused"] = static_cast<double>(unfused);
}
BENCHMARK(BM_Ablation_TemplateCounts)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  asp::bench::parse_and_strip_options(argc, argv);  // shared flags first
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  asp::obs::write_bench_json("ablation_jit");
  return 0;
}
