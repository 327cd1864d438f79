// Protocol: one downloaded ASP, taken through the full pipeline once
//   source -> lex/parse -> typecheck -> safety analyses (the gate)
//          -> run-time specialization (checked AST -> JIT templates)
// and then instantiated on each node that runs it. The compiled protocol is
// immutable and shared; each instance is one node's executable engine.
#pragma once

#include <memory>
#include <string>

#include "planp/analysis.hpp"
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

/// A compiled, verified protocol. Immutable once compile() returns, so any
/// number of nodes, on any shards, may share one and instantiate it.
class Protocol {
 public:
  struct Options {
    EngineKind engine = EngineKind::kJit;
    /// Reject programs failing the mandatory analyses. Privileged/
    /// authenticated users may load unverified protocols (paper §2.1).
    bool require_verified = true;
  };

  /// Runs the whole pipeline once: parse, typecheck, analyses and gate, and
  /// for the JIT the lowering to templates. Throws PlanPError (syntax and
  /// type errors, or channels whose protocol-state types differ) or
  /// VerificationError (gate).
  static std::shared_ptr<const Protocol> compile(const std::string& source,
                                                 Options opts);
  static std::shared_ptr<const Protocol> compile(const std::string& source) {
    return compile(source, Options{});
  }

  /// A fresh engine for one node: evaluates the program's globals against
  /// `env` (a top-level val may call thisHost()) and prepares the channels.
  /// The engine reads this protocol, which must outlive it; `env` must too.
  std::unique_ptr<Engine> instantiate(EnvApi& env) const;

  const CheckedProgram& checked() const { return checked_; }
  const AnalysisReport& report() const { return report_; }

  /// Non-null when the engine is the JIT.
  const CodegenStats* codegen_stats() const {
    return jit_ != nullptr ? &jit_->stats : nullptr;
  }

 private:
  Protocol() = default;

  CheckedProgram checked_;
  AnalysisReport report_;
  std::shared_ptr<const JitProgram> jit_;  // null for the interpreter
};

}  // namespace asp::planp
