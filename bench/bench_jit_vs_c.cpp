// §2.4: per-packet execution cost — interpreter vs run-time-specialized JIT
// vs built-in C++.
//
// The paper's claims: "a PLAN-P program compiled with this JIT incurs no
// overhead in comparison to the same program written in C", and the
// interpreter is the slow-but-portable reference the JIT is derived from.
// The shape to reproduce: interpreter > JIT, with the JIT within a small
// constant factor of native C++ (the network-level experiments are
// insensitive to that constant, as Figure 8 shows).
#include <benchmark/benchmark.h>

#include <map>

#include "apps/asp_files.hpp"
#include "bench/harness.hpp"
#include "net/network.hpp"
#include "planp/interp.hpp"
#include "planp/jit.hpp"
#include "planp/parser.hpp"
#include "planp/program.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace asp;
using planp::Value;

// asps/http_gateway.planp's own addresses, which the built-in C gateway
// hard-codes too.
const net::Ipv4Addr kVirtual = net::ip("10.0.9.9");
const net::Ipv4Addr kServer0 = net::ip("131.254.60.81");
const net::Ipv4Addr kServer1 = net::ip("131.254.60.109");

Value make_packet(int i) {
  net::IpHeader ip;
  ip.src = net::Ipv4Addr(10, 1, 1, static_cast<std::uint8_t>(1 + i % 16));
  ip.dst = kVirtual;
  ip.proto = net::IpProto::kTcp;
  net::TcpHeader tcp;
  tcp.sport = static_cast<std::uint16_t>(30000 + i % 64);
  tcp.dport = 80;
  tcp.flags = (i % 8 == 0) ? net::tcpflag::kSyn : net::tcpflag::kAck;
  return Value::of_tuple({Value::of_ip(ip), Value::of_tcp(tcp),
                          Value::of_blob(std::vector<std::uint8_t>(64))});
}

struct GatewayFixture {
  GatewayFixture(planp::EngineKind kind) {
    checked = planp::typecheck(
        planp::parse(apps::asp_source("http_gateway")));
    switch (kind) {
      case planp::EngineKind::kInterp:
        engine = std::make_unique<planp::Interp>(checked, env);
        break;
      case planp::EngineKind::kJit:
        engine = std::make_unique<planp::JitEngine>(checked, env);
        break;
    }
    ps = Value::of_int(0);
    ss = engine->init_state(0);
    for (int i = 0; i < 256; ++i) packets.push_back(make_packet(i));
  }

  planp::NullEnv env;
  planp::CheckedProgram checked;
  std::unique_ptr<planp::Engine> engine;
  Value ps, ss;
  std::vector<Value> packets;
};

void run_engine_bench(benchmark::State& state, planp::EngineKind kind) {
  GatewayFixture fx(kind);
  int i = 0;
  for (auto _ : state) {
    Value out = fx.engine->run_channel(0, fx.ps, fx.ss, fx.packets[i++ & 255]);
    benchmark::DoNotOptimize(out);
    fx.ps = out.as_tuple()[0];
    fx.env.sends.clear();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Gateway_Interpreter(benchmark::State& state) {
  run_engine_bench(state, planp::EngineKind::kInterp);
}
BENCHMARK(BM_Gateway_Interpreter);

void BM_Gateway_Jit(benchmark::State& state) {
  run_engine_bench(state, planp::EngineKind::kJit);
}
BENCHMARK(BM_Gateway_Jit);

// The same logic hand-written against the packet structs: the paper's
// "built-in C version".
void BM_Gateway_BuiltinC(benchmark::State& state) {
  std::map<std::pair<std::uint32_t, std::uint16_t>, int> table;
  int counter = 0;
  std::vector<net::Packet> packets;
  for (int i = 0; i < 256; ++i) {
    net::Packet p;
    p.ip.src = net::Ipv4Addr(10, 1, 1, static_cast<std::uint8_t>(1 + i % 16));
    p.ip.dst = kVirtual;
    p.ip.proto = net::IpProto::kTcp;
    p.tcp = net::TcpHeader{static_cast<std::uint16_t>(30000 + i % 64), 80, 0, 0,
                           static_cast<std::uint8_t>(
                               i % 8 == 0 ? net::tcpflag::kSyn : net::tcpflag::kAck),
                           0};
    p.payload = std::vector<std::uint8_t>(64, 0);
    packets.push_back(std::move(p));
  }
  int i = 0;
  for (auto _ : state) {
    net::Packet p = packets[i++ & 255];  // copy, as the engines copy values
    if (p.tcp && p.ip.dst == kVirtual && p.tcp->dport == 80) {
      auto key = std::make_pair(p.ip.src.bits(), p.tcp->sport);
      auto it = table.find(key);
      int con;
      if (it != table.end()) {
        con = it->second;
      } else {
        con = counter % 2;
        table[key] = con;
      }
      if (p.tcp->has(net::tcpflag::kSyn)) ++counter;
      p.ip.dst = con == 0 ? kServer0 : kServer1;
    } else if (p.tcp && p.tcp->sport == 80 &&
               (p.ip.src == kServer0 || p.ip.src == kServer1)) {
      p.ip.src = kVirtual;
    }
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Gateway_BuiltinC);

// Audio degradation path: dominated by the transcoding primitive, where JIT
// and C literally share the kernel — the paper's "no traffic rate
// degradation" case.
void BM_Audio_Jit(benchmark::State& state) {
  planp::NullEnv env;
  env.load_percent = 95;
  planp::CheckedProgram checked =
      planp::typecheck(planp::parse(apps::asp_source("audio_router")));
  planp::JitEngine engine(checked, env);
  net::IpHeader ip;
  ip.src = net::ip("10.0.1.1");
  ip.dst = net::ip("224.1.1.1");
  ip.proto = net::IpProto::kUdp;
  Value pkt = Value::of_tuple({Value::of_ip(ip),
                               Value::of_udp(net::UdpHeader{5004, 5004}),
                               Value::of_blob(std::vector<std::uint8_t>(440))});
  Value ps = Value::of_int(0);
  Value ss = Value::unit();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_channel(0, ps, ss, pkt));
    env.sends.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Audio_Jit);

void BM_Audio_BuiltinC(benchmark::State& state) {
  std::vector<std::uint8_t> pcm(440);
  for (auto _ : state) {
    auto out = planp::audio_16_to_8(planp::audio_stereo_to_mono16(pcm));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Audio_BuiltinC);

}  // namespace

int main(int argc, char** argv) {
  asp::bench::parse_and_strip_options(argc, argv);  // shared flags first
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  asp::obs::write_bench_json("jit_vs_c");
  return 0;
}
