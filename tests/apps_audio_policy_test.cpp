// Policy experimentation (paper §3.1: "strategies can be quickly developed
// and experimented with" — here by swapping the router ASP).
#include <gtest/gtest.h>

#include "apps/asp_files.hpp"
#include "apps/audio/experiment.hpp"
#include "planp/analysis.hpp"
#include "planp/parser.hpp"

namespace asp::apps {
namespace {

TEST(AudioPolicy, HysteresisAspPassesAllAnalyses) {
  auto r = planp::analyze(
      planp::typecheck(planp::parse(asp_source("audio_router_hysteresis"))));
  EXPECT_TRUE(r.fully_verified())
      << r.global_termination_detail << r.delivery_detail << r.duplication_detail;
}

TEST(AudioPolicy, BothPoliciesDegradeUnderLargeLoad) {
  for (AudioPolicy policy : {AudioPolicy::kThreshold, AudioPolicy::kHysteresis}) {
    AudioExperiment exp(true, policy);
    auto r = exp.run(15.0, {{0.0, 0.0}, {5.0, 9.7e6}});
    EXPECT_EQ(r.series.back().level, 2) << "policy " << static_cast<int>(policy);
  }
}

TEST(AudioPolicy, HysteresisSuppressesMediumLoadOscillation) {
  // The threshold policy flaps when the load straddles the 85% threshold;
  // the hysteresis policy holds the degraded level until the segment calms.
  std::vector<LoadStep> schedule{{0.0, 0.0}, {5.0, 8.35e6}};
  AudioExperiment threshold(true, AudioPolicy::kThreshold);
  auto r_thresh = threshold.run(60.0, schedule);
  AudioExperiment hysteresis(true, AudioPolicy::kHysteresis);
  auto r_hyst = hysteresis.run(60.0, schedule);

  EXPECT_GT(r_thresh.level_switches, 50) << "threshold policy should oscillate";
  EXPECT_LT(r_hyst.level_switches, r_thresh.level_switches / 4)
      << "hysteresis should remove most oscillation";
}

TEST(AudioPolicy, HysteresisRecoversAfterLoadClears) {
  AudioExperiment exp(true, AudioPolicy::kHysteresis);
  auto r = exp.run(30.0, {{0.0, 0.0}, {5.0, 9.7e6}, {15.0, 0.0}});
  // After the load clears at t=15 and the hold period expires, full quality
  // returns.
  EXPECT_EQ(r.series.back().level, 0);
  bool degraded_midway = false;
  for (const auto& s : r.series) {
    if (s.t_sec > 6 && s.t_sec < 14 && s.level == 2) degraded_midway = true;
  }
  EXPECT_TRUE(degraded_midway);
}

}  // namespace
}  // namespace asp::apps
