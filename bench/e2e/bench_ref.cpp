// bench_ref: the benchmark's reference kernel, the yardstick its throughput
// metrics are divided by. bench/e2e/run.py runs it as a fresh process before
// every repetition of a workload.
//
//   bench_ref      prints {"updates": ..., "ns_per_update": ..., "sum": ...}
//
// The kernel makes kUpdates read-modify-write updates at pseudo-random
// (xorshift64) indices of a 128 MiB array: independent cache and TLB misses
// with a little arithmetic, memory-bound like the simulator's run phase. It
// belongs to the benchmark, not to the simulator, so a change to the
// simulator does not change it; what does change it is the host, whose
// memory system a shared machine's neighbours slow down for a minute or more
// at a time. The
// simulator's time per packet rises with it, so the ratio of the two stays
// steady where each alone does not (bench/e2e/README.md, "Noise
// calibration").
//
// `sum` is the sum of the array afterwards. Update i adds i < 2^23, and a
// few updates at most land on one element, so none wraps and the sum must
// equal kUpdates * (kUpdates - 1) / 2; run.py checks it.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace {

constexpr std::size_t kElements = std::size_t{1} << 25;  // 32 Mi x 4 B = 128 MiB
constexpr std::uint64_t kUpdates = std::uint64_t{1} << 23;

}  // namespace

int main() {
  // Value-initialisation writes every page before timing starts, so no
  // page fault is timed.
  std::vector<std::uint32_t> a(kElements);

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t y = 88172645463325252ull;
  for (std::uint64_t i = 0; i < kUpdates; ++i) {
    y ^= y << 13;
    y ^= y >> 7;
    y ^= y << 17;
    a[y & (kElements - 1)] += static_cast<std::uint32_t>(i);
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

  std::uint64_t sum = 0;
  for (const std::uint32_t x : a) sum += x;
  std::printf("{\"updates\": %llu, \"ns_per_update\": %.17g, \"sum\": %llu}\n",
              static_cast<unsigned long long>(kUpdates),
              ns / static_cast<double>(kUpdates), static_cast<unsigned long long>(sum));
  return 0;
}
