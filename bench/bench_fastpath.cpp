// Zero-copy packet fast path (COW payloads + interned dispatch + threaded
// JIT) over the pooled-buffer/arena memory subsystem: end-to-end packets/sec
// through AspRuntime::inject and heap allocations/packet, across interp vs
// jit vs the jit+COW pass-through path.
//
// Besides the google-benchmark timings, main() publishes median-of-5 gauges
// (bench/fastpath/*) into BENCH_fastpath.json: absolute packets/s and
// allocations/packet from this run. Compare two builds by running both on
// the same machine, not against figures recorded elsewhere.
//
// Every global operator new is attributed to a subsystem via the thread-local
// mem::AllocTag the pools set around their refill paths, so the per-packet
// figure decomposes into buffer / tuple / frame / event / other.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "mem/pool.hpp"
#include "mem/shard.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "runtime/engine.hpp"

// --- allocation accounting ----------------------------------------------------
// Counts every global operator new in the process, bucketed by the subsystem
// tag active on the allocating thread; the per-packet figures difference the
// counters around a measured loop, so unrelated startup allocations don't
// pollute them.
namespace {
constexpr std::size_t kTagCount =
    static_cast<std::size_t>(asp::mem::AllocTag::kCount);
std::atomic<std::uint64_t> g_allocs_by_tag[kTagCount]{};

void count_alloc() {
  const auto tag = static_cast<std::size_t>(asp::mem::current_alloc_tag());
  g_allocs_by_tag[tag].fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

// GCC flags free() inside a replaced operator delete as a mismatched pair
// after inlining; the replacement really is malloc/free-backed, so the
// warning is a false positive here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  count_alloc();
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  count_alloc();
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Aligned forms too: slab chunk refills use 64 KiB-aligned operator new, and
// they must show up in the per-packet figure like every other allocation.
void* operator new(std::size_t n, std::align_val_t al) {
  count_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n) == 0) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  count_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n) == 0) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace asp;

// The alloc budget the memory subsystem is held to on the tagged path; CI
// fails the Release job if the measured figure exceeds it — serial AND at
// every multi-shard point below.
constexpr double kTaggedAllocBudget = 2.0;

// Shard counts the shard-local memory subsystem is exercised at. Each point
// runs one thread per shard, each bound to its own mem::ShardPools, and CI
// asserts 0 allocs/packet and 0 pool-mutex spills in steady state at all of
// them (ISSUE 7 acceptance).
constexpr int kShardPoints[] = {1, 4, 16};

// Display names, indexed by AllocTag.
constexpr const char* kTagName[kTagCount] = {"other", "buffer", "tuple",
                                             "frame", "event"};

const char* kProtocol = R"(
channel ctrl(ps : int, ss : unit, p : ip*udp*char*int) is (drop(); (ps + 1, ss))
channel ctrl(ps : int, ss : unit, p : ip*udp*blob) is (drop(); (ps + 1, ss))
channel stats(ps : int, ss : unit, p : ip*udp*blob) is (drop(); (ps + 1, ss))
channel network(ps : int, ss : unit, p : ip*udp*blob) is (drop(); (ps, ss))
)";

// The same dispatch with a `try … with` in each `ctrl` body: entering a `try`
// must cost no allocation, so this path allocates exactly as often as the
// plain tagged one.
const char* kTryProtocol = R"(
channel ctrl(ps : int, ss : unit, p : ip*udp*char*int) is
  (drop(); (try ps + 1 with ps, ss))
channel ctrl(ps : int, ss : unit, p : ip*udp*blob) is
  (drop(); (try ps + 1 with ps, ss))
channel stats(ps : int, ss : unit, p : ip*udp*blob) is (drop(); (ps + 1, ss))
channel network(ps : int, ss : unit, p : ip*udp*blob) is (drop(); (ps, ss))
)";

struct Fixture {
  net::Network network;
  net::Node& node;
  runtime::AspRuntime rt;

  // Instruments are keyed by node name (node/<name>/asp/*), so fixtures that
  // run at the same time need distinct names or they share counters.
  explicit Fixture(planp::EngineKind engine, const std::string& name = "bench",
                   const char* protocol = kProtocol)
      : node(network.add_node(name)), rt(node) {
    node.add_interface(net::ip("10.0.0.2"));
    planp::Protocol::Options opts;
    opts.engine = engine;
    rt.install(protocol, opts);
  }
};

// A tagged control packet: dispatches to both `ctrl` overloads.
net::Packet tagged_packet() {
  net::Packet p = net::Packet::make_udp(net::ip("10.0.0.1"), net::ip("10.0.0.2"),
                                        9999, 7,
                                        std::vector<std::uint8_t>(1024, 0x5A));
  p.set_channel("ctrl");
  return p;
}

// A pass-through TCP packet: no channel of the protocol matches, so it falls
// through to IP untouched — the pure dispatch+COW overhead path.
net::Packet passthrough_packet() {
  net::TcpHeader h;
  h.sport = 30000;
  h.dport = 80;
  return net::Packet::make_tcp(net::ip("10.0.0.1"), net::ip("10.0.0.2"), h,
                               std::vector<std::uint8_t>(1024, 0xC3));
}

void BM_Fastpath_Tagged_Interp(benchmark::State& state) {
  Fixture f(planp::EngineKind::kInterp);
  net::Packet p = tagged_packet();
  for (auto _ : state) benchmark::DoNotOptimize(f.rt.inject(p));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Fastpath_Tagged_Interp);

void BM_Fastpath_Tagged_Jit(benchmark::State& state) {
  Fixture f(planp::EngineKind::kJit);
  net::Packet p = tagged_packet();
  for (auto _ : state) benchmark::DoNotOptimize(f.rt.inject(p));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Fastpath_Tagged_Jit);

void BM_Fastpath_PassThrough_JitCow(benchmark::State& state) {
  Fixture f(planp::EngineKind::kJit);
  net::Packet p = passthrough_packet();
  for (auto _ : state) benchmark::DoNotOptimize(f.rt.inject(p));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Fastpath_PassThrough_JitCow);

// --- gauge export -------------------------------------------------------------

double measure_pps(runtime::AspRuntime& rt, const net::Packet& packet, int n) {
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    net::Packet copy = packet;
    benchmark::DoNotOptimize(rt.inject(std::move(copy)));
  }
  auto t1 = std::chrono::steady_clock::now();
  return n / std::chrono::duration<double>(t1 - t0).count();
}

struct AllocBreakdown {
  double total = 0;
  double by_tag[kTagCount] = {};
};

AllocBreakdown measure_allocs_per_packet(runtime::AspRuntime& rt,
                                         const net::Packet& packet, int n) {
  std::uint64_t before[kTagCount];
  for (std::size_t t = 0; t < kTagCount; ++t) {
    before[t] = g_allocs_by_tag[t].load(std::memory_order_relaxed);
  }
  for (int i = 0; i < n; ++i) {
    net::Packet copy = packet;
    benchmark::DoNotOptimize(rt.inject(std::move(copy)));
  }
  AllocBreakdown out;
  for (std::size_t t = 0; t < kTagCount; ++t) {
    std::uint64_t after = g_allocs_by_tag[t].load(std::memory_order_relaxed);
    out.by_tag[t] = static_cast<double>(after - before[t]) / n;
    out.total += out.by_tag[t];
  }
  return out;
}

void export_gauges() {
  constexpr int kPackets = 200'000;
  obs::MetricsRegistry& reg = obs::registry();

  Fixture interp(planp::EngineKind::kInterp);
  Fixture jit(planp::EngineKind::kJit);
  Fixture jit_try(planp::EngineKind::kJit, "bench-try", kTryProtocol);
  net::Packet tagged = tagged_packet();
  net::Packet passthrough = passthrough_packet();

  double interp_pps = obs::record_stabilized_gauge(
      "bench/fastpath/tagged_interp_pps",
      [&] { return measure_pps(interp.rt, tagged, kPackets); });
  double jit_pps = obs::record_stabilized_gauge(
      "bench/fastpath/tagged_jit_pps",
      [&] { return measure_pps(jit.rt, tagged, kPackets); });
  double pass_pps = obs::record_stabilized_gauge(
      "bench/fastpath/passthrough_jit_pps",
      [&] { return measure_pps(jit.rt, passthrough, kPackets); });
  double pass_allocs = obs::record_stabilized_gauge(
      "bench/fastpath/passthrough_allocs_per_packet", [&] {
        return measure_allocs_per_packet(jit.rt, passthrough, kPackets).total;
      });
  // The stabilized gauge wants a scalar, so the total is stabilized and the
  // per-subsystem decomposition comes from one extra measured pass.
  double tagged_allocs = obs::record_stabilized_gauge(
      "bench/fastpath/tagged_allocs_per_packet", [&] {
        return measure_allocs_per_packet(jit.rt, tagged, kPackets).total;
      });
  AllocBreakdown tagged_split = measure_allocs_per_packet(jit.rt, tagged, kPackets);
  for (std::size_t t = 0; t < kTagCount; ++t) {
    reg.gauge(std::string("bench/fastpath/tagged_allocs_") + kTagName[t] +
              "_per_packet")
        .set(tagged_split.by_tag[t]);
  }
  double try_allocs = obs::record_stabilized_gauge(
      "bench/fastpath/try_allocs_per_packet", [&] {
        return measure_allocs_per_packet(jit_try.rt, tagged, kPackets).total;
      });

  reg.gauge("bench/fastpath/tagged_allocs_budget").set(kTaggedAllocBudget);
  reg.gauge("bench/fastpath/jit_vs_interp").set(jit_pps / interp_pps);

  std::printf("fastpath: tagged interp %.3g pps, jit %.3g pps; "
              "pass-through %.3g pps at %.3f allocs/packet\n",
              interp_pps, jit_pps, pass_pps, pass_allocs);
  std::printf("fastpath: tagged %.3f allocs/packet, with try %.3f (budget %.0f):",
              tagged_allocs, try_allocs, kTaggedAllocBudget);
  for (std::size_t t = 0; t < kTagCount; ++t) {
    std::printf(" %s=%.3f", kTagName[t], tagged_split.by_tag[t]);
  }
  std::printf("\n");
}

// --- multi-shard gauges -------------------------------------------------------

// The tagged jit path with k threads, each bound to its own shard's pool set
// and driving its own runtime — the shard-local memory subsystem under real
// thread parallelism. All alloc counting is process-wide, so the per-packet
// figure aggregates every thread; the spills delta proves no pool mutex was
// touched during the measured phase. Wall-clock pps aggregates the k threads
// and is recorded, not asserted (it depends on the runner's core count).
void export_shard_gauges(const std::vector<int>& shard_points) {
  constexpr int kWarmPackets = 20'000;
  constexpr int kMeasurePackets = 60'000;
  obs::MetricsRegistry& reg = obs::registry();

  for (int k : shard_points) {
    std::barrier warmed(k + 1);    // every thread finished warmup
    std::barrier measuring(k + 1); // counters snapshotted, start the clock
    std::barrier done(k + 1);      // every thread finished the measured loop
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      threads.emplace_back([&, i] {
        // Bind to the lowest free pool set (main holds shard 0, so the k
        // workers land on 1..k) and keep every pool touch shard-local.
        mem::bind_shard(-1);
        Fixture f(planp::EngineKind::kJit, "bench-" + std::to_string(i));
        net::Packet tagged = tagged_packet();
        measure_pps(f.rt, tagged, kWarmPackets);  // warm pools + freelists
        warmed.arrive_and_wait();
        measuring.arrive_and_wait();
        measure_pps(f.rt, tagged, kMeasurePackets);
        done.arrive_and_wait();
        // Fixture teardown happens after `done`, outside the timed region.
      });
    }
    warmed.arrive_and_wait();
    std::uint64_t allocs_before = 0;
    for (const auto& c : g_allocs_by_tag) {
      allocs_before += c.load(std::memory_order_relaxed);
    }
    const mem::PoolTotals before = mem::total_pool_stats();
    auto t0 = std::chrono::steady_clock::now();
    measuring.arrive_and_wait();
    done.arrive_and_wait();
    auto t1 = std::chrono::steady_clock::now();
    std::uint64_t allocs_after = 0;
    for (const auto& c : g_allocs_by_tag) {
      allocs_after += c.load(std::memory_order_relaxed);
    }
    const mem::PoolTotals after = mem::total_pool_stats();
    for (std::thread& t : threads) t.join();

    const double packets = static_cast<double>(k) * kMeasurePackets;
    const double pps = packets / std::chrono::duration<double>(t1 - t0).count();
    const double allocs = static_cast<double>(allocs_after - allocs_before) / packets;
    const double spills = static_cast<double>(after.spills - before.spills);
    const std::string p = "bench/fastpath/shards_" + std::to_string(k) + "/";
    reg.gauge(p + "tagged_jit_pps").set(pps);
    reg.gauge(p + "tagged_allocs_per_packet").set(allocs);
    reg.gauge(p + "spills").set(spills);
    reg.gauge(p + "remote_freed")
        .set(static_cast<double>(after.remote_freed - before.remote_freed));
    std::printf("fastpath: shards_%d tagged jit %.3g pps aggregate "
                "at %.4f allocs/packet, %g pool spills\n",
                k, pps, allocs, spills);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Shared harness flags come out of argv first (--shards=N adds a shard
  // point to the measured set); google-benchmark parses the rest.
  const asp::bench::Options opts = asp::bench::parse_and_strip_options(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  export_gauges();
  std::vector<int> shard_points(std::begin(kShardPoints), std::end(kShardPoints));
  if (std::find(shard_points.begin(), shard_points.end(), opts.shards) ==
      shard_points.end()) {
    shard_points.push_back(opts.shards);
  }
  export_shard_gauges(shard_points);
  asp::mem::publish_metrics();
  asp::obs::write_bench_json("fastpath");
  return 0;
}
