#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>

#include "net/network.hpp"
#include "net/tcp.hpp"
#include "planp/cache.hpp"

namespace asp::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker, enough to certify to_json() output: validates
// objects, strings, numbers and null (the only constructs the exporter
// emits), rejecting trailing garbage.
// ---------------------------------------------------------------------------
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') return object();
    if (c == '"') return string();
    if (c == 'n') return literal("null");
    return number();
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() && (std::isdigit(s_[pos_]) || s_[pos_] == '.' ||
                                s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(s_[pos_])) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Counter, CountsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.set(2.5);  // last write wins
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(Histogram, ExactStatsAlongsideBuckets) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.observe(10);
  h.observe(20);
  h.observe(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 60.0);
  EXPECT_DOUBLE_EQ(h.min(), 10.0);
  EXPECT_DOUBLE_EQ(h.max(), 30.0);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, QuantilesOnUniformDistribution) {
  // 1..1000 uniformly: log2 buckets with in-bucket linear interpolation and
  // min/max clamping land within a few percent of the true quantile.
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.observe(v);
  EXPECT_NEAR(h.quantile(0.50), 500.0, 25.0);
  EXPECT_NEAR(h.quantile(0.90), 900.0, 45.0);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(Histogram, QuantilesOnConstantDistribution) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(42.0);
  // Every observation sits in bucket (32, 64]; clamping the interpolation to
  // the observed range makes the estimate exact.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 42.0);
}

TEST(Histogram, QuantilesOnBimodalDistribution) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.observe(3.0);    // bucket (2,4]
  for (int i = 0; i < 10; ++i) h.observe(900.0);  // bucket (512,1024]
  double p50 = h.quantile(0.50);
  EXPECT_GE(p50, 2.0);
  EXPECT_LE(p50, 4.0);
  // p99 interpolates inside the upper mode's bucket: bounded below by the
  // bucket floor and above by the observed max.
  double p99 = h.quantile(0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 900.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 900.0);  // clamped to max
}

TEST(Histogram, EdgeValues) {
  Histogram h;
  h.observe(0);
  h.observe(-5);  // clamped to 0
  h.observe(1);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  EXPECT_EQ(h.buckets()[0], 3u);  // bucket 0 covers [0, 1]
}

TEST(Histogram, BucketBoundaries) {
  Histogram h;
  h.observe(2.0);  // boundary: belongs to (1,2]
  h.observe(2.5);  // (2,4]
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper_bound(0), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper_bound(10), 1024.0);
}

TEST(Registry, SameNameSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x/y");
  reg.counter("x/z").inc();  // interleaved registration must not move a
  Counter& b = reg.counter("x/y");
  a.inc();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 1u);
  // Different kinds may share a name without clashing.
  reg.gauge("x/y").set(7);
  EXPECT_EQ(reg.counter("x/y").value(), 1u);
}

TEST(Json, ExportIsValidAndComplete) {
  MetricsRegistry reg;
  reg.counter("node/r/asp/packets_handled").inc(12);
  reg.gauge("node/r/net/load").set(0.75);
  Histogram& h = reg.histogram("planp/jit/codegen_us");
  for (int v = 1; v <= 100; ++v) h.observe(v);

  std::string json = to_json(reg);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"node/r/asp/packets_handled\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"planp/jit/codegen_us\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(Json, EmptyRegistryIsValid) {
  MetricsRegistry reg;
  std::string json = to_json(reg);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
}

TEST(Json, EscapesAwkwardNames) {
  MetricsRegistry reg;
  reg.counter("weird\"name\\with\nstuff").inc();
  std::string json = to_json(reg);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
}

TEST(Json, WriteFileRoundTrip) {
  MetricsRegistry reg;
  reg.counter("a").inc(3);
  std::string path = testing::TempDir() + "obs_metrics_test.json";
  ASSERT_TRUE(write_json(reg, path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  std::size_t n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  std::remove(path.c_str());
  std::string contents(buf, n);
  EXPECT_TRUE(JsonChecker(contents).valid()) << contents;
  EXPECT_NE(contents.find("\"a\": 3"), std::string::npos);
}

TEST(Registry, DefaultRegistryIsProcessWide) {
  Counter& c = registry().counter("obs_test/self");
  std::uint64_t before = c.value();
  registry().counter("obs_test/self").inc();
  EXPECT_EQ(c.value(), before + 1);
}

// Each count has one copy. In instance mode a node registers only its
// received-packet counter and a medium only its delivered counter; TCP
// connections and cache stores register nothing, because their accessors
// are the only copy of their counts.
TEST(Registry, SimulatedObjectsRegisterOneCounterEach) {
  ASSERT_TRUE(instance_metrics_enabled());
  const MetricsRegistry& reg = registry();
  const std::size_t counters0 = reg.counters().size();
  const std::size_t gauges0 = reg.gauges().size();

  net::Network network;
  net::Node& a = network.add_node("one_copy_a");
  net::Node& b = network.add_node("one_copy_b");
  network.link(a, net::ip("10.77.0.1"), b, net::ip("10.77.0.2"), 10e6);
  EXPECT_EQ(reg.counters().size(), counters0 + 3);
  EXPECT_EQ(reg.gauges().size(), gauges0);
  EXPECT_EQ(reg.counters().count("node/one_copy_a/net/rx_packets"), 1u);
  EXPECT_EQ(reg.counters().count("node/one_copy_b/net/rx_packets"), 1u);
  EXPECT_EQ(reg.counters().count("medium/one_copy_a-one_copy_b/delivered_packets"), 1u);

  std::shared_ptr<net::TcpConnection> accepted;
  b.tcp().listen(80, [&](std::shared_ptr<net::TcpConnection> c) { accepted = c; });
  std::shared_ptr<net::TcpConnection> conn = a.tcp().connect(b.addr(), 80);
  conn->send("hello");
  network.run();
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(conn->bytes_sent(), 5u);
  EXPECT_EQ(accepted->bytes_received(), 5u);

  planp::CacheStore store;
  store.store(1, net::make_buffer({1, 2, 3}), 0);
  EXPECT_NE(store.lookup(1, 0), nullptr);
  EXPECT_EQ(store.lookup(2, 0), nullptr);
  EXPECT_EQ(store.stats().hits, 1u);

  EXPECT_EQ(reg.counters().size(), counters0 + 3);
  EXPECT_EQ(reg.gauges().size(), gauges0);
  EXPECT_GT(reg.counters().at("node/one_copy_b/net/rx_packets").value(), 0u);
}

TEST(Registry, StabilizedGaugeRecordsMedianAfterWarmup) {
  int calls = 0;
  // Samples after the 2 warmup calls: 10, 50, 30, 1000, 20 -> median 30.
  double vals[] = {0, 0, 10, 50, 30, 1000, 20};
  double med = record_stabilized_gauge(
      "obs_test/stabilized", [&]() { return vals[calls++]; }, /*warmup=*/2,
      /*reps=*/5);
  EXPECT_EQ(calls, 7);
  EXPECT_DOUBLE_EQ(med, 30.0);
  EXPECT_DOUBLE_EQ(registry().gauge("obs_test/stabilized").value(), 30.0);
}

}  // namespace
}  // namespace asp::obs
