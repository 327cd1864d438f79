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

  /// An install-time-prepared dispatch handle for one channel: run() is the
  /// per-packet fast path with the channel lookup already resolved, so the
  /// match-action dispatcher enters the engine without re-indexing (DESIGN.md
  /// §6c). The engine owns the handle; it stays valid for the engine's
  /// lifetime.
  class Channel {
   public:
    virtual ~Channel() = default;
    /// True when the channel body can observe its packet argument. When
    /// false the caller may pass Value{} for `packet` — the match-action
    /// dispatcher then skips payload materialization entirely (match-only
    /// classification, the P4 shape: parse only what the action reads).
    virtual bool packet_used() const { return true; }
    /// Semantics of Engine::run_channel for the prepared channel.
    virtual Value run(const Value& ps, const Value& ss, const Value& packet) = 0;
  };

  /// The prepared handle for `chan_idx`. The default implementation wraps
  /// run_channel; engines with a cheaper entry point override it.
  virtual Channel* channel(int chan_idx);

  virtual const CheckedProgram& program() const = 0;
  virtual const char* engine_name() const = 0;

 private:
  std::vector<std::unique_ptr<Channel>> default_channels_;
};

/// Tree-walking interpreter over the type-annotated AST.
class Interp : public Engine {
 public:
  /// Evaluates top-level `val` definitions immediately (program load time).
  Interp(const CheckedProgram& prog, EnvApi& env);

  Value init_state(int chan_idx) override;
  Value run_channel(int chan_idx, const Value& ps, const Value& ss,
                    const Value& packet) override;
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
