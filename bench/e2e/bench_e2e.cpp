// bench_e2e: one repetition of an end-to-end scenario workload, in a fresh
// process. The process-global metrics registry and warmed memory pools would
// otherwise leak from one repetition into the next. bench/e2e/run.py
// launches it several times per workload and turns the JSON line it prints
// into the benchmark's metrics (bench/e2e/README.md defines each of them).
//
//   bench_e2e --scn=FILE [--seed=N] [--shards=N] [--duration=SECS]
//             [--trace=OUT.json]
//
// Every run times setup (load_scn_file + the Scenario constructor) and the
// run phase (Scenario::run), and reads process CPU time, peak RSS and
// context switches from getrusage and the main thread's run delay from
// /proc/self/schedstat. --seed replaces both the workload and the
// impairment seed of the .scn file.
//
// --trace adds a per-layer ledger, taken from outside the program through
// public APIs only:
//   * setup sub-phases, timed on a separately built copy of the topology
//     (build_topology, the Workload constructor, a 4-shard
//     ParallelExecutor partition) in a fresh child process before the real
//     setup;
//   * on serial runs, Network::set_run_override drives the event queue in
//     1 ms simulated slices and reads queue depth, pool totals and medium
//     counters between slices;
//   * global operator new is counted over the run phase;
//   * spans (name, start, end, parent) and per-slice samples stay in memory
//     and are written to OUT.json at exit.
// Traced runs are slower; run.py takes end-to-end numbers only from
// untraced runs.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "mem/pool.hpp"
#include "net/exec.hpp"
#include "obs/metrics.hpp"
#include "planp/cache.hpp"
#include "scenario/scenario.hpp"

// --- allocation accounting (traced runs, run phase only) ---------------------
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void count_alloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

// GCC flags free() inside a replaced operator delete as a mismatched pair
// after inlining; the replacement really is malloc/free-backed.
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
using Clock = std::chrono::steady_clock;

// The shard count the setup ledger partitions into: the sharded workloads'.
constexpr int kPartitionShards = 4;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Usage {
  double cpu_s = 0;
  long vol_csw = 0;
  long invol_csw = 0;
  long maxrss_kb = 0;
};

Usage usage() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return Usage{secs(r.ru_utime) + secs(r.ru_stime), r.ru_nvcsw, r.ru_nivcsw,
               r.ru_maxrss};
}

/// Nanoseconds the main thread spent runnable but waiting for a CPU (second
/// field of /proc/self/schedstat); 0 where the file is unavailable.
std::uint64_t run_delay_ns() {
  std::FILE* f = std::fopen("/proc/self/schedstat", "r");
  if (f == nullptr) return 0;
  unsigned long long exec_ns = 0, delay_ns = 0;
  const int got = std::fscanf(f, "%llu %llu", &exec_ns, &delay_ns);
  std::fclose(f);
  return got == 2 ? delay_ns : 0;
}

/// Sum of every registry counter named <prefix>...<suffix>.
std::uint64_t counter_sum(const char* prefix, const char* suffix) {
  const std::size_t pl = std::strlen(prefix), sl = std::strlen(suffix);
  std::uint64_t sum = 0;
  for (const auto& [name, c] : obs::registry().counters()) {
    if (name.size() >= pl + sl && name.compare(0, pl, prefix) == 0 &&
        name.compare(name.size() - sl, sl, suffix) == 0) {
      sum += c.value();
    }
  }
  return sum;
}

/// Run-phase readings of the counters the traced ledger differences.
struct Counters {
  std::uint64_t allocs = 0;
  mem::PoolTotals pools;
  std::uint64_t rx_pkts = 0, route_hits = 0, route_misses = 0;
  std::uint64_t asp_handled = 0, asp_passed = 0, asp_sent = 0, asp_errors = 0;

  static Counters read() {
    Counters c;
    c.allocs = g_allocs.load(std::memory_order_relaxed);
    c.pools = mem::total_pool_stats();
    c.rx_pkts = counter_sum("node/", "/net/rx_packets");
    c.route_hits = counter_sum("node/", "/net/route_cache_hits");
    c.route_misses = counter_sum("node/", "/net/route_cache_misses");
    c.asp_handled = counter_sum("node/", "/asp/packets_handled");
    c.asp_passed = counter_sum("node/", "/asp/packets_passed");
    c.asp_sent = counter_sum("node/", "/asp/packets_sent");
    c.asp_errors = counter_sum("node/", "/asp/runtime_errors");
    return c;
  }
};

struct Phase {
  double start_s = 0, end_s = 0;
  double seconds() const { return end_s - start_s; }
};

struct Span {
  const char* name;  // static strings: recording a span must not allocate
  double start_s, end_s;
  int parent;  // index into the span list, -1 for the root
};

/// Counters read between two 1 ms slices of a traced serial run.
struct SliceSample {
  double sim_ms;
  double wall_ms;
  std::uint64_t events;
  std::size_t pending;
  std::uint64_t delivered_pkts;
  std::uint64_t pool_live;
};

/// In-memory trace of one process: spans relative to process start.
class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  int open(const char* name, int parent) {
    spans_.push_back(Span{name, now(), -1, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int span) { spans_[static_cast<std::size_t>(span)].end_s = now(); }
  void add(const char* name, const Phase& p, int parent) {
    spans_.push_back(Span{name, p.start_s, p.end_s, parent});
  }
  double duration(int span) const {
    const Span& s = spans_[static_cast<std::size_t>(span)];
    return s.end_s - s.start_s;
  }
  double now() const { return since(origin_); }
  void reserve(std::size_t slices) {
    spans_.reserve(spans_.size() + slices + 16);
    samples_.reserve(slices + 16);
  }
  void sample(const SliceSample& s) { samples_.push_back(s); }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                      "\"parent\": %d}%s\n",
                   s.name, s.start_s, s.end_s, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"slices\": [\n");
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      const SliceSample& s = samples_[i];
      std::fprintf(f, "    {\"sim_ms\": %.3f, \"wall_ms\": %.6f, \"events\": %llu, "
                      "\"pending\": %zu, \"delivered_pkts\": %llu, "
                      "\"pool_live\": %llu}%s\n",
                   s.sim_ms, s.wall_ms, static_cast<unsigned long long>(s.events),
                   s.pending, static_cast<unsigned long long>(s.delivered_pkts),
                   static_cast<unsigned long long>(s.pool_live),
                   i + 1 < samples_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<SliceSample> samples_;
};

/// Setup sub-phases timed on a scratch copy of the scenario's network.
/// Plain data: it crosses a pipe from the child process that measures it.
struct SetupLedger {
  Phase topology, workload, partition;
  int islands = 0;
};

/// Builds a scratch copy of the scenario's network the way the Scenario
/// constructor does and times each step against `origin`. Impairments go on
/// before partitioning because an impaired link cannot be cut (Scenario::run
/// does the same), so the island count matches the real run.
SetupLedger time_setup_phases(const scenario::ScenarioConfig& cfg,
                              Clock::time_point origin) {
  SetupLedger l;
  obs::ScopedCoarseMetrics coarse;
  net::Network net;
  l.topology.start_s = since(origin);
  const scenario::BuiltTopology topo = scenario::build_topology(net, cfg.topology);
  l.topology.end_s = l.workload.start_s = since(origin);
  scenario::Workload workload(topo.hosts, cfg.workload);
  l.workload.end_s = since(origin);

  const scenario::ImpairmentConfig& ic = cfg.impairments;
  if (ic.any()) {
    net::Impairments imp;
    imp.loss_rate = ic.loss_rate;
    imp.corrupt_rate = ic.corrupt_rate;
    imp.duplicate_rate = ic.duplicate_rate;
    imp.jitter = ic.jitter;
    if (ic.scope == "access" || ic.scope == "all") {
      for (net::Medium* m : topo.access_media) m->set_impairments(imp);
    }
    if (ic.scope == "fabric" || ic.scope == "all") {
      for (net::Medium* m : topo.fabric_media) m->set_impairments(imp);
    }
  }
  l.partition.start_s = since(origin);
  net::ParallelExecutor exec(net, kPartitionShards);
  l.partition.end_s = since(origin);
  l.islands = exec.island_count();
  return l;
}

/// time_setup_phases in a fresh process: this binary, executed again with
/// --ledger-origin. Building the scratch copy in this process would leave
/// its heap warm, and a forked child starts with this process's pages
/// shared copy-on-write; either way the measured setup would not match an
/// untraced one. The child writes the ledger to a pipe. Must be called while
/// the process has a single thread. Exits the process on failure.
SetupLedger time_setup_phases_cold(int argc, char** argv, Clock::time_point origin) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  const std::string origin_arg =
      "--ledger-origin=" +
      std::to_string(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         origin.time_since_epoch())
                         .count());
  std::vector<char*> args(argv, argv + argc);
  args.push_back(const_cast<char*>(origin_arg.c_str()));
  args.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv("/proc/self/exe", args.data());
    std::_Exit(127);
  }
  close(fds[1]);
  SetupLedger l;
  std::size_t got = 0;
  while (got < sizeof l) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(&l) + got, sizeof l - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof l || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "setup ledger process failed\n");
    std::exit(1);
  }
  return l;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

/// Appends `"key": value` to a one-line JSON object under construction.
void put(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += out.size() > 1 ? ", \"" : "\"";
  out += key;
  out += "\": ";
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point origin = Clock::now();
  const bench::Options opts =
      bench::parse_options(argc, argv, {}, {"--scn=", "--trace=", "--ledger-origin="});
  std::string scn_path, trace_path;
  const char* ledger_origin = nullptr;  // set in the setup-ledger process only
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--scn=", 6) == 0) scn_path = a + 6;
    else if (std::strncmp(a, "--trace=", 8) == 0) trace_path = a + 8;
    else if (std::strncmp(a, "--ledger-origin=", 16) == 0) ledger_origin = a + 16;
  }
  if (scn_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_e2e --scn=FILE [--seed=N] [--shards=N] "
                 "[--duration=SECS] [--trace=OUT.json]\n");
    return 2;
  }
  const bool traced = !trace_path.empty();
  const int shards = opts.shards;
  Trace trace(origin);
  const int root = trace.open("bench_e2e", -1);

  scenario::ScenarioConfig cfg;
  auto load = [&] {
    std::string error;
    if (!scenario::load_scn_file(scn_path, cfg, error)) {
      std::fprintf(stderr, "%s: %s\n", scn_path.c_str(), error.c_str());
      std::exit(2);
    }
    cfg.workload.seed = opts.seed;
    cfg.impairments.seed = opts.seed;
    if (opts.duration_s > 0) cfg.run.duration = net::seconds(opts.duration_s);
  };

  if (ledger_origin != nullptr) {
    load();
    const SetupLedger l = time_setup_phases(
        cfg, Clock::time_point(std::chrono::nanoseconds(
                 std::strtoll(ledger_origin, nullptr, 10))));
    return std::fwrite(&l, sizeof l, 1, stdout) == 1 ? 0 : 1;
  }

  SetupLedger ledger;
  if (traced) {
    const int span = trace.open("trace.setup_ledger", root);
    ledger = time_setup_phases_cold(argc, argv, origin);
    trace.close(span);
    trace.add("scenario.topology", ledger.topology, span);
    trace.add("scenario.workload", ledger.workload, span);
    trace.add("net.exec.partition", ledger.partition, span);
  }

  const int setup = trace.open("setup", root);
  int span = trace.open("scenario.load_scn", setup);
  load();
  trace.close(span);
  const double load_s = trace.duration(span);
  span = trace.open("scenario.construct", setup);
  auto sc = std::make_unique<scenario::Scenario>(cfg);
  trace.close(span);
  const double ctor_s = trace.duration(span);
  trace.close(setup);

  // Traced serial runs: drive the queue in 1 ms simulated slices. (A sharded
  // run's executor installs its own override, so slicing is serial-only.)
  const int run = trace.open("run", root);
  net::Network& net = sc->network();
  std::uint64_t events = 0;
  std::size_t pending_max = 0;
  double slices_s = 0;
  std::vector<double> slice_ms;
  if (traced && shards == 1) {
    const std::size_t slices = cfg.run.duration / net::kNsPerMs + 1;
    trace.reserve(slices);
    slice_ms.reserve(slices);
    obs::Counter& delivered = obs::registry().counter("medium/_agg/delivered_packets");
    net.set_run_override(
        [&](net::SimTime t) {
          net::EventQueue& q = net.events();
          while (q.now() < t) {
            const net::SimTime next = std::min(t, q.now() + net::kNsPerMs);
            const int s = trace.open("net.event.slice", run);
            const std::uint64_t ran = q.run_until(next);
            trace.close(s);
            events += ran;
            slices_s += trace.duration(s);
            pending_max = std::max(pending_max, q.pending());
            slice_ms.push_back(trace.duration(s) * 1e3);
            trace.sample(SliceSample{static_cast<double>(next) / 1e6,
                                     trace.duration(s) * 1e3, ran, q.pending(),
                                     delivered.value(), mem::total_pool_stats().live});
          }
        },
        [&] { events += net.events().run(); });
  }

  const Usage u0 = usage();
  const std::uint64_t delay0 = run_delay_ns();
  const Counters c0 = Counters::read();
  g_count_allocs.store(traced, std::memory_order_relaxed);
  const Clock::time_point w0 = Clock::now();
  const scenario::ScenarioMetrics m = sc->run(shards);
  const double run_s = since(w0);
  g_count_allocs.store(false, std::memory_order_relaxed);
  const Counters c1 = Counters::read();
  const std::uint64_t delay1 = run_delay_ns();
  const Usage u1 = usage();
  trace.close(run);

  const std::string metrics_json = m.to_json();
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(planp::CacheStore::fnv1a(
                    metrics_json.data(), metrics_json.size())));

  std::string out = "{";
  put(out, "shards", m.shards);
  put(out, "seed", static_cast<double>(opts.seed));
  put(out, "traced", traced ? 1 : 0);
  put(out, "setup_s", load_s + ctor_s);
  put(out, "load_s", load_s);
  put(out, "construct_s", ctor_s);
  put(out, "run_s", run_s);
  put(out, "run_cpu_s", u1.cpu_s - u0.cpu_s);
  put(out, "sim_s", net::to_seconds(m.sim_time));
  put(out, "peak_rss_mb", static_cast<double>(u1.maxrss_kb) / 1024.0);
  put(out, "vol_csw", static_cast<double>(u1.vol_csw - u0.vol_csw));
  put(out, "invol_csw", static_cast<double>(u1.invol_csw - u0.invol_csw));
  put(out, "run_delay_frac", static_cast<double>(delay1 - delay0) / 1e9 / run_s);
  put(out, "delivered_pkts", static_cast<double>(m.delivered_packets));
  put(out, "delivered_bytes", static_cast<double>(m.delivered_bytes));
  put(out, "dropped_pkts", static_cast<double>(m.dropped_queue + m.dropped_loss +
                                               m.dropped_down + m.dropped_unaddressed));
  put(out, "requests", static_cast<double>(m.workload.requests));
  put(out, "completed", static_cast<double>(m.workload.completed));
  put(out, "timeouts", static_cast<double>(m.workload.timeouts));
  put(out, "origin_requests", static_cast<double>(m.workload.origin_requests));
  put(out, "cache_hits", static_cast<double>(m.cache_hits));
  put(out, "cache_misses", static_cast<double>(m.cache_misses));
  put(out, "cache_fills", static_cast<double>(m.cache_fills));
  put(out, "cache_evictions", static_cast<double>(m.cache_evictions));
  put(out, "spills", static_cast<double>(c1.pools.spills));
  if (traced) {
    put(out, "topology_s", ledger.topology.seconds());
    put(out, "workload_s", ledger.workload.seconds());
    put(out, "partition_s", ledger.partition.seconds());
    put(out, "islands", ledger.islands);
    put(out, "events", static_cast<double>(events));
    put(out, "pending_max", static_cast<double>(pending_max));
    put(out, "slices", static_cast<double>(slice_ms.size()));
    put(out, "slices_s", slices_s);
    put(out, "slice_ms_p50", quantile(slice_ms, 0.50));
    put(out, "slice_ms_p99", quantile(slice_ms, 0.99));
    put(out, "heap_allocs", static_cast<double>(c1.allocs - c0.allocs));
    put(out, "pool_hits", static_cast<double>(c1.pools.hits - c0.pools.hits));
    put(out, "pool_misses", static_cast<double>(c1.pools.misses - c0.pools.misses));
    put(out, "remote_freed",
        static_cast<double>(c1.pools.remote_freed - c0.pools.remote_freed));
    put(out, "rx_pkts", static_cast<double>(c1.rx_pkts - c0.rx_pkts));
    put(out, "route_cache_hits", static_cast<double>(c1.route_hits - c0.route_hits));
    put(out, "route_cache_misses",
        static_cast<double>(c1.route_misses - c0.route_misses));
    put(out, "asp_handled", static_cast<double>(c1.asp_handled - c0.asp_handled));
    put(out, "asp_passed", static_cast<double>(c1.asp_passed - c0.asp_passed));
    put(out, "asp_sent", static_cast<double>(c1.asp_sent - c0.asp_sent));
    put(out, "asp_errors", static_cast<double>(c1.asp_errors - c0.asp_errors));
  }
  out += ", \"digest\": \"";
  out += digest;
  out += "\"}";

  if (traced) {
    trace.close(root);
    if (!trace.write(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}
