// scenario_run: load a .scn file, run it, print (and optionally save) the
// deterministic metrics JSON.
//
//   scenario_run --scenario=scenarios/fat_tree_1k.scn            # as configured
//   scenario_run --scenario=... --shards=16 --duration=0.05      # overrides
//   scenario_run --scenario=... --seed=7    # workload and impairment seed
//   scenario_run --scenario=... --smoke                          # CI gate
//   scenario_run --scenario=... --json=BENCH_scenario.json
//
// --smoke is the CI scenario gate: after the run it asserts that the
// workload actually moved traffic (delivered packets > 0) and that the
// shard-local allocator never fell off its fast path (pool spills == 0),
// exiting 1 with a diagnostic otherwise.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench/harness.hpp"
#include "mem/pool.hpp"
#include "scenario/scenario.hpp"

using namespace asp;

int main(int argc, char** argv) {
  bench::Options opts = bench::parse_options(
      argc, argv, {}, {"--scenario=", "--smoke", "--json="});
  opts.shards = 0;  // default: take the shard count from the .scn [run] section

  std::string path;
  std::string json_path;
  bool smoke = false;
  bool seed_given = false;  // without --seed the .scn file's seeds stand
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--scenario=", 11) == 0) path = a + 11;
    else if (std::strncmp(a, "--json=", 7) == 0) json_path = a + 7;
    else if (std::strcmp(a, "--smoke") == 0) smoke = true;
    else if (std::strncmp(a, "--shards=", 9) == 0) opts.shards = std::atoi(a + 9);
    else if (std::strncmp(a, "--seed=", 7) == 0) seed_given = true;
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: scenario_run --scenario=FILE.scn [--shards=N] "
                 "[--seed=N] [--duration=SECS] [--smoke] [--json=OUT]\n");
    return 2;
  }

  scenario::ScenarioConfig cfg;
  std::string error;
  if (!scenario::load_scn_file(path, cfg, error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  if (opts.duration_s > 0) {
    cfg.run.duration = static_cast<net::SimTime>(opts.duration_s * 1e9);
  }
  if (seed_given) {  // replaces both seeds, as bench_e2e's --seed does
    cfg.workload.seed = opts.seed;
    cfg.impairments.seed = opts.seed;
  }

  scenario::Scenario sc(cfg);
  std::printf("scenario %s: %zu nodes (%zu hosts, %zu routers), digest %016llx\n",
              cfg.name.c_str(), sc.topology().node_count(),
              sc.topology().hosts.size(), sc.topology().routers.size(),
              static_cast<unsigned long long>(
                  scenario::topology_digest(sc.network())));

  const scenario::ScenarioMetrics m = sc.run(opts.shards);
  const std::string json = m.to_json();
  std::printf("shards=%d islands=%d\n%s\n", m.shards, m.islands, json.c_str());

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << json << "\n";
  }

  if (smoke) {
    const mem::PoolTotals pools = mem::total_pool_stats();
    if (m.delivered_packets == 0) {
      std::fprintf(stderr, "smoke FAIL: no packets delivered\n");
      return 1;
    }
    if (pools.spills != 0) {
      std::fprintf(stderr, "smoke FAIL: %llu pool spills (expected 0)\n",
                   static_cast<unsigned long long>(pools.spills));
      return 1;
    }
    // With a cache tier configured, the run must actually hit in it — a
    // scenario whose edge caches never serve is a miswired scenario.
    if (cfg.asp_cache != "none" && m.cache_hits == 0) {
      std::fprintf(stderr, "smoke FAIL: cache tier configured (%s) but 0 hits\n",
                   cfg.asp_cache.c_str());
      return 1;
    }
    std::printf("smoke OK: %llu packets delivered, %llu cache hits, "
                "0 pool spills\n",
                static_cast<unsigned long long>(m.delivered_packets),
                static_cast<unsigned long long>(m.cache_hits));
  }
  return 0;
}
