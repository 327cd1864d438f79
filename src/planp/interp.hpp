// PLAN-P execution engines.
//
// `Engine` is the common interface: given a channel and the current states,
// process one packet and return the (protocol state, channel state) pair.
// Two implementations exist, mirroring the paper's architecture:
//   * Interp (this header)        — portable AST interpreter,
//   * JitEngine (jit.hpp)         — run-time-specialized threaded code,
//                                    the analog of the Tempo-generated JIT.
#pragma once

#include <memory>
#include <vector>

#include "mem/pool.hpp"
#include "planp/primitives.hpp"
#include "planp/typecheck.hpp"
#include "planp/value.hpp"

namespace asp::planp {

class Engine {
 public:
  virtual ~Engine() = default;

  /// Evaluates channel `chan_idx`'s initstate expression (or a type-default).
  virtual Value init_state(int chan_idx) = 0;

  /// Runs one packet through channel `chan_idx`. Returns the (ps, ss) pair.
  /// A PLAN-P exception escaping the channel propagates as PlanPException.
  virtual Value run_channel(int chan_idx, const Value& ps, const Value& ss,
                            const Value& packet) = 0;

  /// True when channel `chan_idx`'s body can observe its packet argument.
  /// When false the caller may pass Value{} for `packet`: the match-action
  /// dispatcher then skips payload materialization entirely (match-only
  /// classification, the P4 shape: parse only what the action reads).
  virtual bool packet_used(int chan_idx) const = 0;

  virtual const CheckedProgram& program() const = 0;
  virtual const char* engine_name() const = 0;
};

/// Tree-walking interpreter over the type-annotated AST.
class Interp : public Engine {
 public:
  /// Evaluates top-level `val` definitions immediately (program load time).
  Interp(const CheckedProgram& prog, EnvApi& env);

  Value init_state(int chan_idx) override;
  Value run_channel(int chan_idx, const Value& ps, const Value& ss,
                    const Value& packet) override;
  /// No packet-use analysis: every channel is dispatched with its packet.
  bool packet_used(int) const override { return true; }
  const CheckedProgram& program() const override { return prog_; }
  const char* engine_name() const override { return "interp"; }

  /// Evaluates a bare expression with no locals (tests).
  Value eval_expr(const Expr& e);

  /// Value of the idx-th top-level `val` (computed at construction).
  const Value& global(int idx) const { return globals_.at(static_cast<std::size_t>(idx)); }

 private:
  /// A view of the current call's slot vector. The storage itself lives in
  /// the depth-indexed FrameArena and is reused call after call — entering a
  /// call costs a clear+resize of a warm vector, not an allocation.
  struct Frame {
    std::vector<Value>& slots;
  };

  Value eval(const Expr& e, Frame& f);
  Value call_function(const FunDef& fun, mem::FrameArena<Value>::Frame& fr);

  const CheckedProgram& prog_;
  EnvApi& env_;
  std::vector<Value> globals_;
  mem::FrameArena<Value> arena_;
  std::size_t depth_ = 0;
};

}  // namespace asp::planp
