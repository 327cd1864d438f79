// PLAN-P execution engines.
//
// `Engine` is the common interface: given a channel and the current states,
// process one packet and return the new protocol state and channel state.
// Two implementations exist, mirroring the paper's architecture:
//   * Interp (this header)        — portable AST interpreter,
//   * JitEngine (jit.hpp)         — run-time-specialized threaded code,
//                                    the analog of the Tempo-generated JIT.
#pragma once

#include <memory>
#include <vector>

#include "mem/pool.hpp"
#include "planp/netapi.hpp"
#include "planp/primitives.hpp"
#include "planp/typecheck.hpp"
#include "planp/value.hpp"

namespace asp::planp {

/// The two states a channel run leaves (paper §2): the new protocol state,
/// shared by all of a program's channels, and the new state of the channel.
struct States {
  Value ps;
  Value ss;
};

class Engine {
 public:
  virtual ~Engine() = default;

  /// Evaluates channel `chan_idx`'s initstate expression (or a type-default).
  virtual Value init_state(int chan_idx) = 0;

  /// Runs one packet through channel `chan_idx` and returns the new states.
  /// `packet` must match the channel's packet type (match_packet against
  /// its DecodePlan, which the runtime checks first). A PLAN-P exception
  /// escaping the channel propagates as PlanPException. When the run
  /// returns, the engine holds no reference to the packet or its payload.
  virtual States run_channel(int chan_idx, const Value& ps, const Value& ss,
                             const asp::net::Packet& packet) = 0;

  virtual const CheckedProgram& program() const = 0;
  virtual const char* engine_name() const = 0;
};

/// Tree-walking interpreter over the type-annotated AST: the boxed
/// reference. It decodes each packet into a tuple of Values (decode_packet)
/// and encodes what it sends (encode_packet).
class Interp : public Engine {
 public:
  /// Evaluates top-level `val` definitions immediately (program load time).
  Interp(const CheckedProgram& prog, EnvApi& env);

  Value init_state(int chan_idx) override;
  /// Evaluates the body to its (ps, ss) tuple and splits it.
  States run_channel(int chan_idx, const Value& ps, const Value& ss,
                     const asp::net::Packet& packet) override;
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
  /// Per channel: its decode plan and the tuple storage decode_packet
  /// refills in place while nothing else holds it.
  std::vector<DecodePlan> plans_;
  std::vector<TupleRep> scratch_;
  mem::FrameArena<Value> arena_;
  std::size_t depth_ = 0;
};

}  // namespace asp::planp
