// Protocol: one downloaded ASP, taken through the full pipeline
//   source -> lex/parse -> typecheck -> safety analyses (the gate)
//          -> bytecode -> run-time specialization -> executable engine.
#pragma once

#include <memory>
#include <string>

#include "planp/analysis.hpp"
#include "planp/compile.hpp"
#include "planp/interp.hpp"
#include "planp/jit.hpp"

namespace asp::planp {

enum class EngineKind { kInterp, kJit };

/// Thrown when the verification gate rejects a program (paper §2.1: programs
/// "should be analyzed and rejected if they cannot be shown to terminate or
/// to exhibit non-exponential packet duplication").
class VerificationError : public std::exception {
 public:
  explicit VerificationError(const AnalysisReport& report);
  const char* what() const noexcept override { return message_.c_str(); }
  const AnalysisReport& report() const { return report_; }

 private:
  AnalysisReport report_;
  std::string message_;
};

/// A compiled, verified, loadable protocol.
class Protocol {
 public:
  struct Options {
    EngineKind engine = EngineKind::kJit;
    /// Reject programs failing the mandatory analyses. Privileged/
    /// authenticated users may load unverified protocols (paper §2.1).
    bool require_verified = true;
  };

  /// Runs the whole pipeline. Throws PlanPError (syntax/type errors) or
  /// VerificationError (gate). `env` must outlive the protocol.
  static std::unique_ptr<Protocol> load(const std::string& source, EnvApi& env,
                                        Options opts);
  static std::unique_ptr<Protocol> load(const std::string& source, EnvApi& env) {
    return load(source, env, Options{});
  }

  const CheckedProgram& checked() const { return checked_; }
  const AnalysisReport& report() const { return report_; }
  const CompiledProgram& compiled() const { return compiled_; }
  Engine& engine() { return *engine_; }

  /// Non-null when the engine is the JIT.
  const CodegenStats* codegen_stats() const {
    auto* j = dynamic_cast<JitEngine*>(engine_.get());
    return j != nullptr ? &j->codegen_stats() : nullptr;
  }

 private:
  Protocol() = default;

  CheckedProgram checked_;
  AnalysisReport report_;
  CompiledProgram compiled_;
  std::unique_ptr<Engine> engine_;
};

}  // namespace asp::planp
