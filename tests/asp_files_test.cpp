// The shipped ASPs are the asps/*.planp files, embedded in the binary. Every
// file must take the full pipeline on both engines, each file's verdict at
// the download gate is pinned, and overriding a top-level `val` changes that
// literal and nothing else.
#include "apps/asp_files.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>

#include "net/network.hpp"
#include "planp/parser.hpp"
#include "planp/primitives.hpp"
#include "planp/program.hpp"
#include "planp/typecheck.hpp"

namespace asp::apps {
namespace {

using asp::net::ip;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(AspFiles, EveryShippedAspTypechecks) {
  for (const AspFile& f : asp_files()) {
    EXPECT_NO_THROW(planp::typecheck(planp::parse(std::string(f.text)))) << f.name;
  }
}

TEST(AspFiles, EveryShippedAspCompilesOnBothEngines) {
  for (const AspFile& f : asp_files()) {
    for (planp::EngineKind engine : {planp::EngineKind::kInterp, planp::EngineKind::kJit}) {
      planp::Protocol::Options opts;
      opts.engine = engine;
      opts.require_verified = false;
      std::shared_ptr<const planp::Protocol> proto;
      ASSERT_NO_THROW(proto = planp::Protocol::compile(std::string(f.text), opts))
          << f.name;
      planp::NullEnv env;
      EXPECT_NE(proto->instantiate(env), nullptr) << f.name;
    }
  }
}

TEST(AspFiles, DownloadGateVerdictsArePinned) {
  // The three load-balancing gateways send a connection to one of two
  // literal servers, which the conservative termination analysis cannot
  // prove; they load only through the authenticated path (paper §2.1).
  const std::map<std::string_view, bool> passes_gate = {
      {"audio_client", true},          {"audio_router", true},
      {"audio_router_hysteresis", true}, {"bridge", true},
      {"cache_proxy", true},           {"http_gateway", false},
      {"http_gateway_failover", false}, {"http_gateway_hash", false},
      {"image_distill", true},         {"mpeg_capture", true},
      {"mpeg_monitor", true},          {"mpeg_reply", true},
      {"scenario_edge_cache", true},   {"scenario_monitor", true},
  };
  ASSERT_EQ(asp_files().size(), passes_gate.size());
  for (const AspFile& f : asp_files()) {
    auto it = passes_gate.find(f.name);
    ASSERT_NE(it, passes_gate.end()) << f.name << " has no pinned verdict";
    bool passed = true;
    try {
      planp::Protocol::compile(std::string(f.text));
    } catch (const planp::VerificationError&) {
      passed = false;
    }
    EXPECT_EQ(passed, it->second) << f.name;
  }
}

TEST(AspFiles, SizesMatchThePapersOrderOfMagnitude) {
  // Paper figure 3: programs of 28..161 lines, "average size about 130 lines
  // of PLAN-P". Ours are comparably small.
  int total = 0, n = 0;
  for (const AspFile& f : asp_files()) {
    planp::Program p = planp::parse(std::string(f.text));
    EXPECT_GT(p.source_lines, 1) << f.name;
    EXPECT_LT(p.source_lines, 200) << f.name;
    total += p.source_lines;
    ++n;
  }
  EXPECT_LT(total / n, 161);
}

TEST(AspSource, OverrideChangesOneLiteralAndKeepsTheLineCount) {
  const std::vector<std::string> file = lines_of(asp_source("http_gateway"));
  const std::vector<std::string> host = lines_of(
      asp_source("http_gateway", {{"server0", ip("10.0.2.1")}}));
  const std::vector<std::string> both = lines_of(
      override_vals("val n : int = 50   -- the default\nval h : host = 1.2.3.4\n",
                    {{"h", ip("10.0.0.1")}, {"n", 7}}));

  ASSERT_EQ(host.size(), file.size());
  int changed = 0;
  for (std::size_t i = 0; i < file.size(); ++i) {
    if (host[i] == file[i]) continue;
    ++changed;
    EXPECT_EQ(file[i], "val server0 : host = 131.254.60.81");
    EXPECT_EQ(host[i], "val server0 : host = 10.0.2.1");
  }
  EXPECT_EQ(changed, 1);
  EXPECT_EQ(both, (std::vector<std::string>{"val n : int = 7   -- the default",
                                            "val h : host = 10.0.0.1"}));
}

TEST(AspSource, UnknownNameThrows) {
  EXPECT_THROW(asp_source("cache_proxy", {{"cacheSize", 1}}), std::invalid_argument);
  // Declared, but inside a channel: not a top-level val.
  EXPECT_THROW(asp_source("cache_proxy", {{"iph", ip("10.0.0.1")}}),
               std::invalid_argument);
  EXPECT_THROW(asp_source("no_such_file"), std::invalid_argument);
}

TEST(AspSource, DuplicateNameThrows) {
  EXPECT_THROW(override_vals("val n : int = 1\nval n : int = 2\n", {{"n", 3}}),
               std::invalid_argument);
  EXPECT_THROW(asp_source("cache_proxy", {{"cacheEntries", 8}, {"cacheEntries", 9}}),
               std::invalid_argument);
}

TEST(AspSource, HostValueForIntValThrows) {
  EXPECT_THROW(asp_source("cache_proxy", {{"cacheEntries", ip("10.0.0.1")}}),
               std::invalid_argument);
  EXPECT_THROW(asp_source("cache_proxy", {{"originHost", 1}}), std::invalid_argument);
}

}  // namespace
}  // namespace asp::apps
