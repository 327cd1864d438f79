#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

namespace asp::obs {

namespace {

// Bucket index for a value: 0 for v <= 1, else ceil(log2(v)) clamped to the
// last bucket. Computed with integer shifts to stay exact at the power-of-two
// boundaries (bucket i covers (2^(i-1), 2^i]).
int bucket_index(double v) {
  if (!(v > 1.0)) return 0;  // also catches NaN
  if (v >= 9.223372036854776e18) return Histogram::kBuckets - 1;
  auto u = static_cast<std::uint64_t>(std::ceil(v));
  int idx = 0;
  std::uint64_t bound = 1;
  while (bound < u && idx < Histogram::kBuckets - 1) {
    bound <<= 1;
    ++idx;
  }
  return idx;
}

}  // namespace

void Histogram::observe(double v) {
  if (std::isnan(v)) return;
  if (v < 0) v = 0;
  ++buckets_[static_cast<std::size_t>(bucket_index(v))];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
}

double Histogram::bucket_upper_bound(int i) {
  return i <= 0 ? 1.0 : std::ldexp(1.0, i);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q <= 0) return min();
  if (q >= 1) return max();
  double target = q * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    std::uint64_t in_bucket = buckets_[static_cast<std::size_t>(i)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= target) {
      // Interpolate within the bucket, clamping its nominal bounds to the
      // observed range so degenerate buckets don't overshoot.
      double lo = i == 0 ? 0.0 : bucket_upper_bound(i - 1);
      double hi = bucket_upper_bound(i);
      if (lo < min_) lo = min_;
      if (hi > max_) hi = max_;
      if (hi < lo) hi = lo;
      double frac = (target - static_cast<double>(cum)) /
                    static_cast<double>(in_bucket);
      return lo + (hi - lo) * frac;
    }
    cum += in_bucket;
  }
  return max();
}

MetricsRegistry& registry() {
  static MetricsRegistry reg;
  return reg;
}

namespace {
// Setup-time flag (topologies are built single-threaded); atomic so a stray
// read from a worker is still defined.
std::atomic<bool> g_instance_metrics{true};
}  // namespace

bool instance_metrics_enabled() {
  return g_instance_metrics.load(std::memory_order_relaxed);
}

void set_instance_metrics_enabled(bool on) {
  g_instance_metrics.store(on, std::memory_order_relaxed);
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan
    out += "null";
    return;
  }
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    out += std::to_string(static_cast<long long>(v));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

void append_histogram(std::string& out, const Histogram& h) {
  out += "{\"count\": ";
  out += std::to_string(h.count());
  out += ", \"sum\": ";
  append_number(out, h.sum());
  out += ", \"min\": ";
  append_number(out, h.min());
  out += ", \"max\": ";
  append_number(out, h.max());
  out += ", \"mean\": ";
  append_number(out, h.mean());
  out += ", \"p50\": ";
  append_number(out, h.quantile(0.50));
  out += ", \"p90\": ";
  append_number(out, h.quantile(0.90));
  out += ", \"p99\": ";
  append_number(out, h.quantile(0.99));
  out += ", \"buckets\": {";
  bool first = true;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    std::uint64_t n = h.buckets()[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    if (!first) out += ", ";
    first = false;
    std::string bound;
    append_number(bound, Histogram::bucket_upper_bound(i));
    append_escaped(out, bound);
    out += ": ";
    out += std::to_string(n);
  }
  out += "}}";
}

}  // namespace

std::string to_json(const MetricsRegistry& reg) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : reg.counters()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_escaped(out, name);
    out += ": ";
    out += std::to_string(c.value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : reg.gauges()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_escaped(out, name);
    out += ": ";
    append_number(out, g.value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : reg.histograms()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_escaped(out, name);
    out += ": ";
    append_histogram(out, h);
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

bool write_json(const MetricsRegistry& reg, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string json = to_json(reg);
  bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

std::string write_bench_json(const std::string& bench_name) {
  std::string path = "BENCH_" + bench_name + ".json";
  if (!write_json(registry(), path)) {
    std::fprintf(stderr, "[obs] FAILED to write %s\n", path.c_str());
    return "";
  }
  std::printf("[obs] metrics snapshot written to %s\n", path.c_str());
  return path;
}

double record_stabilized_gauge(const std::string& name,
                               const std::function<double()>& sample,
                               int warmup, int reps) {
  for (int i = 0; i < warmup; ++i) sample();
  if (reps < 1) reps = 1;
  std::vector<double> runs;
  runs.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) runs.push_back(sample());
  std::sort(runs.begin(), runs.end());
  // Median: middle element, or the mean of the middle pair for even reps.
  std::size_t mid = runs.size() / 2;
  double median = runs.size() % 2 == 1 ? runs[mid] : (runs[mid - 1] + runs[mid]) / 2.0;
  registry().gauge(name).set(median);
  return median;
}

}  // namespace asp::obs
