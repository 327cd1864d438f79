#include "planp/program.hpp"

#include <chrono>

#include "obs/metrics.hpp"
#include "planp/parser.hpp"

namespace asp::planp {

namespace {

// Microseconds since `t0`, for the planp/install/* stage histograms.
double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

}  // namespace

VerificationError::VerificationError(const AnalysisReport& report) : report_(report) {
  message_ = "protocol rejected by verification:";
  if (!report.global_termination) {
    message_ += " [global termination] " + report.global_termination_detail + ";";
  }
  if (!report.linear_duplication) {
    message_ += " [duplication] " + report.duplication_detail + ";";
  }
  if (!report.cost_bounded) {
    message_ += " [cost bound] " + report.cost_detail + ";";
  }
  if (!report.local_termination) message_ += " [local termination];";
}

std::shared_ptr<const Protocol> Protocol::compile(const std::string& source,
                                                 Options opts) {
  // Stage timings back the paper's "downloading is cheap" claim (Figure 3).
  // They feed the planp/install/* histograms once per compilation: a
  // protocol installed on many nodes is compiled, and counted, once.
  obs::MetricsRegistry& reg = obs::registry();
  auto total0 = std::chrono::steady_clock::now();

  auto proto = std::shared_ptr<Protocol>(new Protocol());
  auto t0 = std::chrono::steady_clock::now();
  Program parsed = parse(source);
  reg.histogram("planp/install/parse_us").observe(us_since(t0));

  t0 = std::chrono::steady_clock::now();
  proto->checked_ = typecheck(std::move(parsed));
  reg.histogram("planp/install/typecheck_us").observe(us_since(t0));

  t0 = std::chrono::steady_clock::now();
  proto->report_ = analyze(proto->checked_);
  reg.histogram("planp/install/verify_us").observe(us_since(t0));
  if (opts.require_verified && !proto->report_.accepted()) {
    reg.counter("planp/install/verify_rejections").inc();
    throw VerificationError(proto->report_);
  }

  // The protocol state is shared between all channels (paper §2); their
  // declared protocol-state types must therefore agree.
  const auto& channels = proto->checked_.channels;
  for (std::size_t i = 1; i < channels.size(); ++i) {
    if (!channels[i]->ps_type->equals(*channels[0]->ps_type)) {
      throw PlanPError(
          "install", channels[i]->loc,
          "all channels must declare the same protocol state type (it is shared)");
    }
  }

  t0 = std::chrono::steady_clock::now();
  if (opts.engine == EngineKind::kJit) {
    proto->jit_ = std::make_shared<const JitProgram>(proto->checked_);
  }
  reg.histogram("planp/install/codegen_us").observe(us_since(t0));
  reg.histogram("planp/install/total_us").observe(us_since(total0));
  reg.counter("planp/install/count").inc();
  return proto;
}

std::unique_ptr<Engine> Protocol::instantiate(EnvApi& env) const {
  if (jit_ != nullptr) return std::make_unique<JitEngine>(jit_, env);
  return std::make_unique<Interp>(checked_, env);
}

}  // namespace asp::planp
