// Observability: a lightweight metrics subsystem (paper-evaluation plumbing).
//
// The paper's whole evaluation is quantitative — codegen latency (Figure 3),
// per-router bandwidth adaptation (Figures 5-7), HTTP cluster throughput
// (Figure 8) — so every layer of this reproduction reports into a
// MetricsRegistry, and every bench snapshots the registry to a
// machine-readable BENCH_<name>.json next to its stdout report.
//
// Instruments:
//   Counter    monotone uint64 (packets, bytes, errors).
//   Gauge      last-written double (levels, rates).
//   Histogram  fixed log2-bucket distribution with p50/p90/p99 estimates
//              (latencies in microseconds, sizes in bytes).
//
// Names are hierarchical, slash-separated, lowercase:
//   node/<node-name>/<layer>/<metric>     e.g. node/router/asp/packets_handled
//   planp/<stage>/<metric>                e.g. planp/jit/codegen_us
// Units ride in the final component (_us, _bytes, _bps) so exported JSON is
// self-describing.
//
// A process-wide default registry (obs::registry()) collects everything; the
// simulator's nodes and the PLAN-P pipeline register into it keyed by node
// name, so metrics accumulate across Network instances within one process
// (benches construct many). Components that need exact per-instance figures
// capture a baseline at construction and report deltas (see
// runtime::AspRuntime::stats()).
//
// Thread-safety (see DESIGN.md §6f): Counter and Gauge are relaxed atomics —
// any shard thread may bump them concurrently through a cached pointer with
// no lock on the hot path; the totals are exact because every write is a
// commutative add/last-write. Instrument *creation* (counter()/gauge()/
// histogram()) takes the registry mutex, so a runtime install on one shard
// can mint instruments while other shards keep incrementing theirs.
// Histograms are NOT atomic: each histogram must be observed from a single
// shard (all of ours are per-node, and a node lives on exactly one shard).
// Whole-registry snapshots (to_json, counters()) are barrier-only:
// call them when no shard is mid-window (before run, after run, or from the
// coordinator at a window barrier).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "obs/relaxed.hpp"

namespace asp::obs {

/// Monotonically increasing event count. Thread-safe (relaxed atomic):
/// concurrent inc() from any shard, exact total at barriers.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_.load(); }

 private:
  RelaxedU64 value_;
};

/// Last-written instantaneous value. Thread-safe (relaxed atomic): set() is a
/// plain store; last writer wins across shards.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Fixed log2-bucket histogram over non-negative values.
///
/// Bucket 0 covers [0, 1]; bucket i (i >= 1) covers (2^(i-1), 2^i]. Exact
/// count/sum/min/max are kept alongside, and quantile() interpolates linearly
/// inside the selected bucket with the bucket bounds clamped to the observed
/// [min, max] — for smooth distributions the estimate lands within a few
/// percent of the true quantile (tests/obs_metrics_test.cpp pins this down).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0; }
  double max() const { return count_ > 0 ? max_ : 0; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0; }

  /// Estimated value at quantile q in [0, 1]. 0 when empty.
  double quantile(double q) const;

  const std::array<std::uint64_t, kBuckets>& buckets() const { return buckets_; }
  /// Inclusive upper bound of bucket i (1, 2, 4, ... as doubles).
  static double bucket_upper_bound(int i);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Owns every instrument, keyed by hierarchical name. Instruments are created
/// on first access and live as long as the registry; returned references stay
/// valid across later registrations (std::map node stability).
///
/// Thread-safety: creation lookups lock `mu_` (cold path — callers cache the
/// returned pointer/reference and then increment lock-free). The map
/// accessors counters()/gauges()/histograms() and to_json read the maps
/// unlocked and are barrier-only under the parallel executor.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_[name];
  }
  Gauge& gauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return gauges_[name];
  }
  Histogram& histogram(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return histograms_[name];
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

 private:
  std::mutex mu_;  // guards map mutation only; instruments are lock-free
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// The process-wide default registry every layer reports into.
MetricsRegistry& registry();

/// Per-instance instrument mode. When ON (the default) every Node registers
/// its own node/<name>/net/rx_packets counter and every Medium its own
/// medium/<name>/delivered_packets. The scenario generators (src/scenario)
/// turn it OFF around construction of internet-scale topologies, whose
/// 10^4 nodes and 3x10^4 media would otherwise each mint a registry entry
/// (and a line in every BENCH_*.json); all instances constructed while the
/// mode is off share node/_agg/net/rx_packets and
/// medium/_agg/delivered_packets. Aggregate counters stay deterministic
/// under the sharded executor (atomic adds commute); every other statistic
/// lives on the objects themselves. Setup-time only: flip it before
/// constructing a topology, never while a simulation runs.
bool instance_metrics_enabled();
void set_instance_metrics_enabled(bool on);

/// RAII guard: turns per-instance instruments off for a construction scope.
class ScopedCoarseMetrics {
 public:
  ScopedCoarseMetrics() : prev_(instance_metrics_enabled()) {
    set_instance_metrics_enabled(false);
  }
  ~ScopedCoarseMetrics() { set_instance_metrics_enabled(prev_); }
  ScopedCoarseMetrics(const ScopedCoarseMetrics&) = delete;
  ScopedCoarseMetrics& operator=(const ScopedCoarseMetrics&) = delete;

 private:
  bool prev_;
};

/// Serializes a registry as deterministic (name-sorted) JSON:
///   {"counters": {...}, "gauges": {...},
///    "histograms": {"<name>": {"count": .., "sum": .., "min": .., "max": ..,
///                              "mean": .., "p50": .., "p90": .., "p99": ..,
///                              "buckets": {"<upper-bound>": <count>, ...}}}}
std::string to_json(const MetricsRegistry& reg);

/// Writes to_json(reg) to `path`. Returns false on I/O failure.
bool write_json(const MetricsRegistry& reg, const std::string& path);

/// Bench exit hook: snapshots the default registry to BENCH_<bench_name>.json
/// in the working directory and prints the path. Returns the path ("" on
/// failure).
std::string write_bench_json(const std::string& bench_name);

/// Bench-harness hygiene: runs `sample` `warmup` times discarded (cache and
/// branch-predictor warm-up), then `reps` more times, records the median in
/// gauge `name` of the default registry, and returns it. Medians over a
/// handful of repetitions are what the bench exporters should publish —
/// one-shot readings on a shared machine are noise.
double record_stabilized_gauge(const std::string& name,
                               const std::function<double()>& sample,
                               int warmup = 1, int reps = 5);

}  // namespace asp::obs
