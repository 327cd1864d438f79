// Shared CLI options for bench/ and examples/ drivers.
//
// Every driver that takes a shard count, an impairment seed or a run
// duration parses them here instead of growing its own strncmp loop. Flags:
//
//   --shards=N       run on the sharded parallel executor (1 = serial)
//   --seed=N         base RNG seed for impairment/chaos scenarios
//   --duration=SECS  simulated duration (fractional seconds accepted)
//
// Unknown `--` flags are REJECTED with an error (exit 2): a typoed
// `--shard=4` used to silently run a serial bench that reported itself as
// sharded. Two escape hatches keep legitimate flag families flowing:
//   * google-benchmark's own flags (--benchmark_*, --help, --version, --v=)
//     always pass through, so one argv serves both parsers;
//   * a driver with extra flags of its own (e.g. --scenario=) lists their
//     prefixes in `extra_prefixes` and parses them from argv afterwards.
// Positional (non `--`) arguments are never touched.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>

namespace asp::bench {

struct Options {
  int shards = 1;
  std::uint64_t seed = 1;
  double duration_s = 0;  // 0 = keep the driver's scenario default
};

namespace detail {
/// Applies `a` to `o` if it is one of the shared flags; returns whether it
/// was recognized (so the strip variant knows what to remove).
inline bool apply_flag(const char* a, Options& o) {
  if (std::strncmp(a, "--shards=", 9) == 0) {
    o.shards = std::atoi(a + 9);
  } else if (std::strncmp(a, "--seed=", 7) == 0) {
    o.seed = std::strtoull(a + 7, nullptr, 10);
  } else if (std::strncmp(a, "--duration=", 11) == 0) {
    o.duration_s = std::strtod(a + 11, nullptr);
  } else {
    return false;
  }
  return true;
}

/// Flags that belong to another legitimate parser and must flow through.
inline bool passthrough_flag(const char* a,
                             std::initializer_list<const char*> extra_prefixes) {
  if (std::strncmp(a, "--benchmark_", 12) == 0) return true;
  if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "--version") == 0)
    return true;
  if (std::strncmp(a, "--v=", 4) == 0) return true;  // benchmark verbosity
  for (const char* p : extra_prefixes) {
    if (std::strncmp(a, p, std::strlen(p)) == 0) return true;
  }
  return false;
}

/// Exits 2 naming `a` and every flag the driver knows: the shared ones and
/// the driver's own `extra_prefixes`.
[[noreturn]] inline void reject_flag(const char* a,
                                     std::initializer_list<const char*> extra_prefixes) {
  std::fprintf(stderr,
               "error: unknown flag '%s'\n"
               "known flags: --shards=N --seed=N --duration=SECS",
               a);
  for (const char* p : extra_prefixes) std::fprintf(stderr, " %s", p);
  std::fprintf(stderr, " (plus --benchmark_* / --help / --version)\n");
  std::exit(2);
}

inline Options clamp(Options o) {
  if (o.shards < 1) o.shards = 1;
  if (o.duration_s < 0) o.duration_s = 0;
  return o;
}
}  // namespace detail

/// Parses the shared flags out of argv. `defaults` seeds the result, so each
/// driver keeps its own scenario defaults for anything not on the command
/// line. Values are clamped to sane minima (shards >= 1, duration >= 0).
/// Any other `--` flag not covered by `extra_prefixes` or the benchmark
/// passthrough list is an error (exit 2).
inline Options parse_options(int argc, char** argv, Options defaults = {},
                             std::initializer_list<const char*> extra_prefixes = {}) {
  Options o = defaults;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (detail::apply_flag(a, o)) continue;
    if (std::strncmp(a, "--", 2) != 0) continue;  // positional: not ours
    if (!detail::passthrough_flag(a, extra_prefixes)) detail::reject_flag(a, extra_prefixes);
  }
  return detail::clamp(o);
}

/// parse_options that also REMOVES the recognized flags from argv (compacting
/// it in place and updating argc). google-benchmark binaries call this BEFORE
/// benchmark::Initialize, so one command line carries both flag families and
/// ReportUnrecognizedArguments never trips over ours. Same rejection rule as
/// parse_options: an unknown `--` flag is fatal, not silently forwarded.
inline Options parse_and_strip_options(
    int& argc, char** argv, Options defaults = {},
    std::initializer_list<const char*> extra_prefixes = {}) {
  Options o = defaults;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (detail::apply_flag(a, o)) continue;
    if (std::strncmp(a, "--", 2) == 0 &&
        !detail::passthrough_flag(a, extra_prefixes)) {
      detail::reject_flag(a, extra_prefixes);
    }
    argv[kept++] = argv[i];
  }
  argv[kept] = nullptr;  // kept <= argc, so the slot exists
  argc = kept;
  return detail::clamp(o);
}

}  // namespace asp::bench
