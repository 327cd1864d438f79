// The cited bridge claim (paper §1/§2.4): "a PLAN-P Ethernet bridge can be
// as efficient as an in-kernel built-in C programmed bridge".
//
// Two measurements: per-frame CPU cost of the bridging decision
// (JIT-specialized ASP vs hand-written C++), and simulated end-to-end
// throughput across the bridge (identical by construction — the network is
// the bottleneck, which is the regime the paper's claim lives in).
#include <benchmark/benchmark.h>

#include <map>

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

net::Packet make_frame(int i) {
  return net::Packet::make_raw(net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(1 + i % 8)),
                               net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(11 + i % 8)),
                               std::vector<std::uint8_t>(256));
}

void BM_Bridge_AspJit(benchmark::State& state) {
  planp::NullEnv env;
  planp::CheckedProgram checked =
      planp::typecheck(planp::parse(apps::asp_source("bridge")));
  planp::JitEngine engine(checked, env);
  Value ps = planp::default_value(checked.channels[0]->ps_type);
  Value ss = Value::unit();
  std::vector<net::Packet> frames;
  for (int i = 0; i < 64; ++i) frames.push_back(make_frame(i));
  int i = 0;
  for (auto _ : state) {
    env.arrival = i % 2;
    ps = engine.run_channel(0, ps, ss, frames[i++ & 63]).ps;
    env.sends.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Bridge_AspJit);

void BM_Bridge_AspInterp(benchmark::State& state) {
  planp::NullEnv env;
  planp::CheckedProgram checked =
      planp::typecheck(planp::parse(apps::asp_source("bridge")));
  planp::Interp engine(checked, env);
  Value ps = planp::default_value(checked.channels[0]->ps_type);
  Value ss = Value::unit();
  std::vector<net::Packet> frames;
  for (int i = 0; i < 64; ++i) frames.push_back(make_frame(i));
  int i = 0;
  for (auto _ : state) {
    env.arrival = i % 2;
    ps = engine.run_channel(0, ps, ss, frames[i++ & 63]).ps;
    env.sends.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Bridge_AspInterp);

void BM_Bridge_BuiltinC(benchmark::State& state) {
  std::map<std::uint32_t, int> table;
  std::vector<net::Packet> frames;
  for (int i = 0; i < 64; ++i) {
    net::Packet p;
    p.ip.src = net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(1 + i % 8));
    p.ip.dst = net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(11 + i % 8));
    p.payload = std::vector<std::uint8_t>(256, 0);
    frames.push_back(std::move(p));
  }
  int i = 0;
  int forwarded = 0;
  for (auto _ : state) {
    const net::Packet& p = frames[i & 63];
    int side = (i++ % 2);
    table[p.ip.src.bits()] = side;
    auto it = table.find(p.ip.dst.bits());
    int dst_side = it != table.end() ? it->second : -1;
    if (dst_side != side) ++forwarded;
    benchmark::DoNotOptimize(forwarded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Bridge_BuiltinC);

}  // namespace

int main(int argc, char** argv) {
  asp::bench::parse_and_strip_options(argc, argv);  // shared flags first
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  asp::obs::write_bench_json("bridge");
  return 0;
}
