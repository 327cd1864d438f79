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

/// PLAN-P's `+`, `-`, `*`, unary `-` and `abs`, as both engines evaluate
/// them: two's-complement wrapping, so the max int plus 1 gives the most
/// negative int, and negating the most negative int (or taking its abs)
/// gives itself, where the signed operation would be undefined.
inline std::int64_t int_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t int_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t int_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t int_neg(std::int64_t a) { return int_sub(0, a); }
inline std::int64_t int_abs(std::int64_t a) { return a < 0 ? int_neg(a) : a; }

/// PLAN-P's `/` and `%`, as both engines evaluate them: a zero divisor
/// raises DivByZero, and the most negative int divided by -1 gives itself
/// (remainder 0) where the machine instruction would trap.
inline std::int64_t int_div(std::int64_t a, std::int64_t b) {
  if (b == 0) throw PlanPException{"DivByZero"};
  return b == -1 ? int_neg(a) : a / b;
}
inline std::int64_t int_mod(std::int64_t a, std::int64_t b) {
  if (b == 0) throw PlanPException{"DivByZero"};
  return b == -1 ? 0 : a % b;
}

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
/// reference. It decodes each packet into a tuple of Values (decode_matched:
/// the runtime has already matched it) and encodes what it sends
/// (encode_packet).
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
  /// Per channel: the tuple storage decode_matched refills in place while
  /// nothing else holds it.
  std::vector<TupleRep> scratch_;
  mem::FrameArena<Value> arena_;
  std::size_t depth_ = 0;
};

}  // namespace asp::planp
