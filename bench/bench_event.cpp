// Event-scheduler bench: schedule/drain mixes shaped like the
// internet-scale scenario workload (DESIGN.md §6h), measuring events/sec and
// heap allocations per executed event through EventQueue::run().
//
// Three mixes, all fully deterministic (fixed seeds, fixed event counts, no
// wall-clock dependence in the workload itself):
//   * timer_heavy    — a population of self-rescheduling workload timers,
//                      each firing also superseding an RTO-style helper
//                      timer with a fresh one (its owner bumps a generation;
//                      the stale helper runs as a no-op). This is the shape
//                      the closed-loop workload synthesizer puts on every
//                      host-bundle queue.
//   * delivery_heavy — a driver timer fanning out same-time packet
//                      deliveries, each one ranked event that captures a
//                      pooled Packet box, i.e. the forwarding-plane shape of
//                      a scenario run.
//   * mixed          — both at once, approximating a full scenario shard.
//
// What CI gates (see .github/workflows/ci.yml, Release job): allocs/event is
// exactly 0 in steady state for every mix — scheduling and draining live
// entirely in the queue's pooled slab and key blocks after warmup. Events/sec is written to
// BENCH_event.json for EXPERIMENTS.md, never asserted (it depends on the
// runner).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.hpp"
#include "mem/pool.hpp"
#include "net/event.hpp"
#include "net/network.hpp"  // net::ip()
#include "net/packet.hpp"
#include "obs/metrics.hpp"

// --- allocation accounting ----------------------------------------------------
// Same process-wide operator-new replacement as bench_fastpath: every global
// allocation is counted, and the per-event figures difference the counter
// around a measured run() so startup noise can't pollute them.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
void count_alloc() { g_allocs.fetch_add(1, std::memory_order_relaxed); }
std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }
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

// Deterministic xorshift64: the only randomness source in the workload.
std::uint64_t xorshift(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// --- timer-heavy --------------------------------------------------------------
// kTimers closed-loop "user" timers: each firing re-arms itself 0.2–2.0 ms
// out (the synthesizer's think-time band) and supersedes its previous
// RTO-style helper with a fresh one +5 ms out, the way timer owners
// invalidate their own timers: it bumps the timer's generation, and a helper
// that finds its generation stale returns at once. Every helper is
// superseded before it is due, so in steady state the queue holds ~kTimers
// live timers plus a few multiples of kTimers superseded helpers, each of
// which still runs as a (no-op) event.
struct TimerSim {
  net::EventQueue q;
  struct Timer {
    std::uint64_t rng;
    std::uint64_t gen = 0;  // bumped to supersede the armed helper
  };
  std::vector<Timer> timers;

  explicit TimerSim(std::size_t n, std::uint64_t seed) {
    timers.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      timers[i].rng = xorshift(seed + 0x9E3779B97F4A7C15ull * (i + 1));
      // Stagger the initial firings across the first 2 ms.
      q.schedule_at(1 + timers[i].rng % 2'000'000, [this, i] { fire(i); });
    }
  }

  void fire(std::size_t i) {
    Timer& t = timers[i];
    // The check is ClientBundle's; the timer always re-fires within 2 ms,
    // so no helper is still current when it runs.
    q.schedule_in(5'000'000, [this, i, gen = ++t.gen] {
      if (timers[i].gen == gen) fire(i);
    });
    t.rng = xorshift(t.rng);
    q.schedule_in(200'000 + t.rng % 1'800'000, [this, i] { fire(i); });
  }
};

// --- delivery-heavy -----------------------------------------------------------
// A driver timer fires every 2 µs and fans out `fanout` groups of kGroup
// deliveries, all due 1 µs later. Each delivery is scheduled the way a
// point-to-point link enqueues a frame arrival: one ranked event whose
// capture holds a pooled Packet box, released after the event runs.
struct CountSink {
  std::uint64_t packets = 0;
};

// Schedules one delivery of a boxed copy of `tmpl` to `sink`.
void schedule_arrival(net::EventQueue& q, net::SimTime at, std::uint32_t rank,
                      CountSink& sink, const net::Packet& tmpl) {
  q.schedule_ranked(at, q.now(), rank,
                    [&sink, box = net::packet_boxes().box(tmpl)]() mutable {
                      ++sink.packets;
                      box.reset();  // recycle, as the receive path does
                    });
}

struct DeliverySim {
  static constexpr std::uint32_t kSinks = 4;
  static constexpr std::uint32_t kGroup = 16;

  net::EventQueue q;
  CountSink sinks[kSinks];
  net::Packet tmpl;
  std::uint32_t fanout;

  explicit DeliverySim(std::uint32_t fanout_groups) : fanout(fanout_groups) {
    tmpl = net::Packet::make_raw(net::ip("10.0.0.1"), net::ip("10.0.0.2"), {});
    q.schedule_at(1, [this] { drive(); });
  }

  void drive() {
    const net::SimTime at = q.now() + 1'000;
    std::uint32_t rank = 0;
    for (std::uint32_t g = 0; g < fanout; ++g) {
      CountSink& s = sinks[g % kSinks];
      for (std::uint32_t j = 0; j < kGroup; ++j) {
        schedule_arrival(q, at, rank++, s, tmpl);
      }
    }
    q.schedule_in(2'000, [this] { drive(); });
  }
};

// --- mixed --------------------------------------------------------------------
// Timer churn and delivery fan-out on one queue: the full shard shape.
struct MixedSim {
  TimerSim timers;

  MixedSim(std::size_t n_timers, std::uint64_t seed, std::uint32_t fanout_groups)
      : timers(n_timers, seed), fanout(fanout_groups) {
    tmpl = net::Packet::make_raw(net::ip("10.0.0.1"), net::ip("10.0.0.2"), {});
    timers.q.schedule_at(1, [this] { drive(); });
  }

  void drive() {
    net::EventQueue& q = timers.q;
    const net::SimTime at = q.now() + 1'000;
    std::uint32_t rank = 0;
    for (std::uint32_t g = 0; g < fanout; ++g) {
      for (std::uint32_t j = 0; j < DeliverySim::kGroup; ++j) {
        schedule_arrival(q, at, rank++, sink, tmpl);
      }
    }
    q.schedule_in(2'000, [this] { drive(); });
  }

  CountSink sink;
  net::Packet tmpl;
  std::uint32_t fanout;
};

// --- measurement --------------------------------------------------------------

struct MixResult {
  double eps = 0;               // executed events per second
  double allocs_per_event = 0;  // heap allocations per executed event
};

template <typename Queue>
MixResult measure(Queue& q, std::uint64_t warm_events, std::uint64_t events) {
  q.run(warm_events);  // grow pools/slabs/containers to steady state
  const std::uint64_t a0 = alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t ran = q.run(events);
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t a1 = alloc_count();
  MixResult r;
  r.eps = static_cast<double>(ran) / std::chrono::duration<double>(t1 - t0).count();
  r.allocs_per_event = static_cast<double>(a1 - a0) / static_cast<double>(ran);
  return r;
}

void record(const std::string& mix, const MixResult& r) {
  obs::MetricsRegistry& reg = obs::registry();
  const std::string p = "bench/event/" + mix + "/";
  reg.gauge(p + "events_per_sec").set(r.eps);
  reg.gauge(p + "allocs_per_event").set(r.allocs_per_event);
  std::printf("event: %-14s %8.3g events/s at %.4f allocs/event\n", mix.c_str(),
              r.eps, r.allocs_per_event);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_options(argc, argv);  // shared flag harness (rejects unknowns)

  {
    // Each firing also runs one superseded helper, so 4M warm-up events
    // cover the simulated span that 2M covered when helpers were cancelled:
    // enough for the queue's key-block pool to reach the most blocks the
    // wheel ever holds at once, after which every block is a reused one.
    TimerSim sim(16'384, 1);
    MixResult r = measure(sim.q, 4'000'000, 4'000'000);
    record("timer_heavy", r);
  }
  {
    DeliverySim sim(4);  // 4 groups of 16 → 64 deliveries per driver firing
    MixResult r = measure(sim.q, 1'500'000, 2'000'000);
    record("delivery_heavy", r);
  }
  {
    MixedSim sim(4'096, 1, 1);  // timer churn + 16 deliveries per 2 µs
    MixResult r = measure(sim.timers.q, 2'000'000, 4'000'000);
    record("mixed", r);
  }

  mem::publish_metrics();
  obs::write_bench_json("event");
  return 0;
}
