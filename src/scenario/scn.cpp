#include "scenario/scn.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace asp::scenario {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

// The number readers accept a whole value inside its range or nothing: a
// value out of range is an error, never a wrapped, truncated or (for a
// double converted to SimTime) undefined conversion.

// An integer in [lo, INT_MAX].
bool to_int(const std::string& v, int& out, int lo) {
  char* end = nullptr;
  errno = 0;
  const long x = std::strtol(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE) return false;
  if (x < lo || x > INT_MAX) return false;
  out = static_cast<int>(x);
  return true;
}

// An unsigned integer; strtoull would wrap a negative one.
bool to_u64(const std::string& v, std::uint64_t& out) {
  if (v.find('-') != std::string::npos) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(v.c_str(), &end, 10);
  return end != v.c_str() && *end == '\0' && errno != ERANGE;
}

// A finite number in [lo, hi].
bool to_double(const std::string& v, double& out, double lo, double hi = HUGE_VAL) {
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || !std::isfinite(x)) return false;
  if (x < lo || x > hi) return false;
  out = x;
  return true;
}

// A non-negative duration of `ns_per_unit` ns per unit that fits SimTime.
bool to_time(const std::string& v, double ns_per_unit, net::SimTime& out) {
  double d;
  if (!to_double(v, d, 0) || d * ns_per_unit >= 0x1p64) return false;
  out = static_cast<net::SimTime>(d * ns_per_unit);
  return true;
}

const char* const kNotARate = ": not a number in [0, 1]";
const char* const kNotADuration = ": not a duration >= 0 below 2^64 ns";

struct Ctx {
  ScenarioConfig* cfg;
  std::string err;  // empty = ok

  bool fail(const std::string& what) {
    err = what;
    return false;
  }
};

bool apply_topology(Ctx& c, const std::string& k, const std::string& v) {
  TopologyParams& t = c.cfg->topology;
  if (k == "kind") {
    t.kind = v;
    return true;
  }
  // Counts: the generator checks each kind's own limits (k even, ...).
  static const std::pair<const char*, int TopologyParams::*> kCounts[] = {
      {"k", &TopologyParams::k},
      {"hosts_per_edge", &TopologyParams::hosts_per_edge},
      {"t1_count", &TopologyParams::t1_count},
      {"t2_per_t1", &TopologyParams::t2_per_t1},
      {"stubs_per_t2", &TopologyParams::stubs_per_t2},
      {"hosts_per_stub", &TopologyParams::hosts_per_stub},
      {"metros", &TopologyParams::metros},
      {"aggs_per_metro", &TopologyParams::aggs_per_metro},
      {"lans_per_agg", &TopologyParams::lans_per_agg},
      {"hosts_per_lan", &TopologyParams::hosts_per_lan},
  };
  for (const auto& [name, field] : kCounts) {
    if (k == name) return to_int(v, t.*field, 0) || c.fail(k + ": not an integer >= 0");
  }
  // Link rates: at 1 b/s or more, any frame's serialization fits SimTime.
  static const std::pair<const char*, double TopologyParams::*> kRates[] = {
      {"host_bps", &TopologyParams::host_bps},
      {"edge_bps", &TopologyParams::edge_bps},
      {"agg_bps", &TopologyParams::agg_bps},
      {"core_bps", &TopologyParams::core_bps},
  };
  for (const auto& [name, field] : kRates) {
    if (k == name) return to_double(v, t.*field, 1) || c.fail(k + ": not a number >= 1");
  }
  if (k == "seed") return to_u64(v, t.seed) || c.fail("seed: not an unsigned integer");
  if (k == "access_delay_us")
    return to_time(v, 1e3, t.access_delay) || c.fail(k + kNotADuration);
  if (k == "fabric_delay_us")
    return to_time(v, 1e3, t.fabric_delay) || c.fail(k + kNotADuration);
  return c.fail("unknown [topology] key: " + k);
}

bool apply_impairments(Ctx& c, const std::string& k, const std::string& v) {
  ImpairmentConfig& i = c.cfg->impairments;
  if (k == "scope") {
    if (v != "access" && v != "fabric" && v != "all" && v != "none")
      return c.fail("scope must be access|fabric|all|none");
    i.scope = v;
    return true;
  }
  if (k == "loss_rate") return to_double(v, i.loss_rate, 0, 1) || c.fail(k + kNotARate);
  if (k == "corrupt_rate")
    return to_double(v, i.corrupt_rate, 0, 1) || c.fail(k + kNotARate);
  if (k == "duplicate_rate")
    return to_double(v, i.duplicate_rate, 0, 1) || c.fail(k + kNotARate);
  if (k == "jitter_us") return to_time(v, 1e3, i.jitter) || c.fail(k + kNotADuration);
  if (k == "seed") return to_u64(v, i.seed) || c.fail("seed: not an unsigned integer");
  return c.fail("unknown [impairments] key: " + k);
}

bool apply_workload(Ctx& c, const std::string& k, const std::string& v) {
  WorkloadParams& w = c.cfg->workload;
  int n;
  if (k == "profile") {
    w.profile = v;
    if (!w.apply_profile()) {
      return c.fail("profile must be http|audio|mpeg|cache");
    }
    return true;
  }
  if (k == "users") return to_u64(v, w.users) || c.fail("users: not an unsigned integer");
  // A bundle draws mean * -ln(u) with u >= 2^-53, at most 37 means: a mean
  // below 2^58 ns keeps every draw within SimTime.
  if (k == "think_ms")
    return to_double(v, w.think_mean_ms, 0, 0x1p58 / 1e6) ||
           c.fail("think_ms: not a number in [0, 2.88e11]");
  if (k == "timeout_ms") return to_time(v, 1e6, w.timeout) || c.fail(k + kNotADuration);
  if (k == "server_fraction")
    return to_double(v, w.server_fraction, 0, 1) || c.fail(k + kNotARate);
  if (k == "seed") return to_u64(v, w.seed) || c.fail("seed: not an unsigned integer");
  if (k == "request_bytes") {
    if (!to_int(v, n, 0)) return c.fail("request_bytes: not an integer >= 0");
    w.request_bytes = static_cast<std::uint32_t>(n);
    return true;
  }
  if (k == "frames_per_response") {
    if (!to_int(v, n, 1)) return c.fail("frames_per_response: not an integer >= 1");
    w.frames_per_response = static_cast<std::uint32_t>(n);
    return true;
  }
  if (k == "frame_bytes") {
    if (!to_int(v, n, 1)) return c.fail("frame_bytes: not an integer >= 1");
    w.frame_bytes = static_cast<std::uint32_t>(n);
    return true;
  }
  if (k == "objects")
    return to_u64(v, w.objects) || c.fail("objects: not an unsigned integer");
  if (k == "zipf_skew")
    return to_double(v, w.zipf_skew, 0) || c.fail("zipf_skew: not a number >= 0");
  return c.fail("unknown [workload] key: " + k);
}

bool apply_asp(Ctx& c, const std::string& k, const std::string& v) {
  int n;
  if (k == "monitors") {
    if (v != "none" && v != "core") return c.fail("monitors must be none|core");
    c.cfg->asp_monitors = v;
    return true;
  }
  if (k == "cache") {
    if (v != "none" && v != "planp" && v != "native")
      return c.fail("cache must be none|planp|native");
    c.cfg->asp_cache = v;
    return true;
  }
  if (k == "cache_entries") {
    if (!to_int(v, n, 1)) return c.fail("cache_entries: not an integer >= 1");
    c.cfg->cache_entries = n;
    return true;
  }
  if (k == "cache_ttl_ms") {
    if (!to_int(v, n, 0)) return c.fail("cache_ttl_ms: not an integer >= 0");
    c.cfg->cache_ttl_ms = n;
    return true;
  }
  return c.fail("unknown [asp] key: " + k);
}

bool apply_run(Ctx& c, const std::string& k, const std::string& v) {
  RunConfig& r = c.cfg->run;
  if (k == "shards")
    return to_int(v, r.shards, 1) || c.fail("shards: not an integer >= 1");
  if (k == "duration_ms")
    return to_time(v, 1e6, r.duration) || c.fail(k + kNotADuration);
  return c.fail("unknown [run] key: " + k);
}

}  // namespace

bool parse_scn(const std::string& text, ScenarioConfig& out, std::string& error) {
  out = ScenarioConfig{};
  Ctx ctx{&out, ""};
  std::istringstream in(text);
  std::string line;
  std::string section;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string t = trim(line);
    if (t.empty() || t[0] == '#' || t[0] == ';') continue;
    if (t.front() == '[') {
      if (t.back() != ']') {
        error = "line " + std::to_string(lineno) + ": unterminated section";
        return false;
      }
      section = trim(t.substr(1, t.size() - 2));
      if (section != "topology" && section != "impairments" &&
          section != "workload" && section != "asp" && section != "run") {
        error = "line " + std::to_string(lineno) + ": unknown section [" +
                section + "]";
        return false;
      }
      continue;
    }
    std::size_t eq = t.find('=');
    if (eq == std::string::npos) {
      error = "line " + std::to_string(lineno) + ": expected key = value";
      return false;
    }
    std::string key = trim(t.substr(0, eq));
    std::string value = trim(t.substr(eq + 1));
    if (key.empty() || value.empty()) {
      error = "line " + std::to_string(lineno) + ": empty key or value";
      return false;
    }
    bool ok;
    if (section == "topology") {
      ok = apply_topology(ctx, key, value);
    } else if (section == "impairments") {
      ok = apply_impairments(ctx, key, value);
    } else if (section == "workload") {
      ok = apply_workload(ctx, key, value);
    } else if (section == "asp") {
      ok = apply_asp(ctx, key, value);
    } else if (section == "run") {
      ok = apply_run(ctx, key, value);
    } else {
      ctx.err = "key before any [section]";
      ok = false;
    }
    if (!ok) {
      error = "line " + std::to_string(lineno) + ": " + ctx.err;
      return false;
    }
  }
  error.clear();
  return true;
}

bool load_scn_file(const std::string& path, ScenarioConfig& out,
                   std::string& error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    error = "cannot open " + path;
    return false;
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  if (!parse_scn(text, out, error)) return false;
  // name = file stem.
  std::size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  std::size_t dot = base.find_last_of('.');
  out.name = dot == std::string::npos ? base : base.substr(0, dot);
  return true;
}

}  // namespace asp::scenario
