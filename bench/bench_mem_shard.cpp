// Alloc-contention bench for the shard-local memory subsystem (DESIGN.md
// §6e): k threads, each bound to its own shard's pool set, churning buffers
// and tuples — locally AND across shards through a hand-off ring, so the
// remote-free channels carry real traffic.
//
// What it gates (exported as bench/mem_shard/* gauges, CI asserts them):
//   * spills stays 0 across the measured phase — no pool op took a mutex
//     (the orphan path never engaged), at every shard count.
//   * after the final drains, remote_freed == remote_drained and live is
//     back to its baseline — every cross-shard free was reclaimed, nothing
//     is stranded on a channel.
// Throughput (aggregate Mops/s) is recorded for EXPERIMENTS.md, never
// asserted: it depends on the runner's core count.
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "mem/pool.hpp"
#include "mem/shard.hpp"
#include "obs/metrics.hpp"
#include "planp/value.hpp"

namespace {

using namespace asp;

// One alloc/free cycle touches a pooled buffer and a PLAN-P tuple, each with
// its control block in its own node.
constexpr int kWarmIters = 5'000;
constexpr int kMeasureIters = 30'000;
constexpr int kHandoffEvery = 4;   // every 4th buffer/tuple crosses shards
constexpr int kDrainEvery = 64;    // simulated window-barrier cadence

struct Handoff {
  mem::BufferPool::Handle buf;
  planp::Value tuple;
};

// Mutex-guarded inbox ring: harness-side synchronization only — the pools
// themselves must stay lock-free, which is exactly what the spills gauge
// checks.
struct Inbox {
  std::mutex mu;
  std::vector<Handoff> v;
};

void churn(int iters, Inbox& my_inbox, Inbox& next_inbox) {
  mem::ShardPools& sp = mem::shard();
  std::vector<Handoff> popped;
  for (int i = 0; i < iters; ++i) {
    mem::BufferPool::Handle buf = sp.buffers().acquire(768);
    buf->assign(600, static_cast<std::uint8_t>(i));
    planp::Value tuple = planp::Value::of_tuple(
        {planp::Value::of_int(i), planp::Value::of_int(i * 2)});

    if (i % kHandoffEvery == 0) {
      // Hand both to the next shard; IT drops them, so the release runs on
      // a non-owner thread and rides our remote-free channels home.
      std::lock_guard<std::mutex> lk(next_inbox.mu);
      next_inbox.v.push_back({std::move(buf), std::move(tuple)});
    }
    // else: dropped here — the owner fast path, straight to the freelist.

    if (i % kHandoffEvery == 1) {
      {
        std::lock_guard<std::mutex> lk(my_inbox.mu);
        popped.swap(my_inbox.v);
      }
      popped.clear();  // releases foreign handles -> remote-free pushes
    }
    if (i % kDrainEvery == kDrainEvery - 1) mem::drain_remote_frees();
  }
}

struct RoundResult {
  double mops = 0;          // aggregate alloc/free cycles per microsecond
  double spills = 0;        // orphan-path ops during the measured phase
  double remote_freed = 0;  // cross-shard frees during the measured phase
  bool reclaimed = false;   // remote_freed == remote_drained after drains
  bool live_balanced = false;
};

RoundResult run_round(int k) {
  std::vector<Inbox> inboxes(static_cast<std::size_t>(k));
  std::barrier warm_churned(k + 1);  // nobody pushes after this
  std::barrier warm_cleaned(k + 1);  // inboxes empty; remote pushes all sent
  std::barrier warmed(k + 1);        // channels drained; steady baseline
  std::barrier measuring(k + 1);
  std::barrier done(k + 1);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(k));
  // Actual pool-set ids, written by each worker before the warm barrier: the
  // preferred id can be taken (this thread keeps its binding from the
  // previous round's sweep), and the final drain must cover the ids the
  // workers really got, or a late cross-shard free stays stranded.
  std::vector<int> ids(static_cast<std::size_t>(k), -1);
  for (int i = 0; i < k; ++i) {
    threads.emplace_back([&, i] {
      mem::bind_shard(i);
      ids[static_cast<std::size_t>(i)] = mem::shard().id();
      Inbox& mine = inboxes[static_cast<std::size_t>(i)];
      Inbox& next = inboxes[static_cast<std::size_t>((i + 1) % k)];
      churn(kWarmIters, mine, next);
      warm_churned.arrive_and_wait();
      // Release parked foreign handles (their remote-free pushes must land
      // before owners drain), then drain own channels, so the measured phase
      // starts from a clean baseline: empty inboxes, empty channels.
      {
        std::lock_guard<std::mutex> lk(mine.mu);
        mine.v.clear();
      }
      warm_cleaned.arrive_and_wait();
      mem::drain_remote_frees();
      warmed.arrive_and_wait();
      measuring.arrive_and_wait();
      churn(kMeasureIters, mine, next);
      done.arrive_and_wait();
      // Post-measure: release any handles still parked in the inbox, then
      // drain one last time (thread-exit teardown drains again anyway).
      {
        std::lock_guard<std::mutex> lk(mine.mu);
        mine.v.clear();
      }
      mem::drain_remote_frees();
    });
  }

  warm_churned.arrive_and_wait();
  warm_cleaned.arrive_and_wait();
  warmed.arrive_and_wait();
  const mem::PoolTotals before = mem::total_pool_stats();
  auto t0 = std::chrono::steady_clock::now();
  measuring.arrive_and_wait();
  done.arrive_and_wait();
  auto t1 = std::chrono::steady_clock::now();
  const mem::PoolTotals during = mem::total_pool_stats();
  for (std::thread& t : threads) t.join();

  // The joined workers drained their own channels at exit, but a free can
  // land on a channel after its owner's last drain. Reclaim the leftovers by
  // re-binding each pool set the workers actually used — also exercising
  // the rebind path — before checking the books balance.
  for (int id : ids) {
    mem::bind_shard(id);
    mem::drain_remote_frees();
  }

  const mem::PoolTotals after = mem::total_pool_stats();
  RoundResult r;
  const double cycles =
      static_cast<double>(k) * kMeasureIters * 2;  // buffer + tuple
  r.mops = cycles / std::chrono::duration<double>(t1 - t0).count() / 1e6;
  r.spills = static_cast<double>(during.spills - before.spills);
  r.remote_freed = static_cast<double>(during.remote_freed - before.remote_freed);
  r.reclaimed = after.remote_freed == after.remote_drained;
  r.live_balanced = after.live == before.live;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // --shards=N adds a shard count to the default {1, 4, 16} sweep.
  const bench::Options opts = bench::parse_options(argc, argv);
  std::vector<int> points = {1, 4, 16};
  if (std::find(points.begin(), points.end(), opts.shards) == points.end()) {
    points.push_back(opts.shards);
  }

  obs::MetricsRegistry& reg = obs::registry();
  bool ok = true;
  for (int k : points) {
    RoundResult r = run_round(k);
    const std::string p = "bench/mem_shard/shards_" + std::to_string(k) + "/";
    reg.gauge(p + "cycles_mops").set(r.mops);
    reg.gauge(p + "spills").set(r.spills);
    reg.gauge(p + "remote_freed").set(r.remote_freed);
    reg.gauge(p + "reclaim_balanced").set(r.reclaimed ? 1 : 0);
    reg.gauge(p + "live_balanced").set(r.live_balanced ? 1 : 0);
    std::printf("mem_shard: shards_%d %.2f Mops/s aggregate, %g spills, "
                "%g remote frees, reclaim %s, live %s\n",
                k, r.mops, r.spills, r.remote_freed,
                r.reclaimed ? "balanced" : "UNBALANCED",
                r.live_balanced ? "balanced" : "UNBALANCED");
    ok = ok && r.spills == 0 && r.reclaimed && r.live_balanced;
  }

  mem::publish_metrics();
  obs::write_bench_json("mem_shard");
  if (!ok) {
    std::printf("mem_shard: FAILED contention gate (see above)\n");
    return 1;
  }
  return 0;
}
