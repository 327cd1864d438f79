// Differential fuzzing: randomly generated well-typed PLAN-P programs must
// behave identically on the interpreter and the JIT, with and without
// superinstruction fusion — including which PLAN-P exceptions they raise.
// This is the mechanized form of the paper's claim that the JIT is *derived*
// from the interpreter and therefore preserves its semantics.
//
// The same corpus also runs with mem pool poisoning on (ASP_MEM_POISON
// semantics): recycled buffers/tuple slots/frames are scribbled with
// sentinels between packets, so an engine holding a stale reference into
// recycled pool memory diverges loudly instead of silently reading stale
// bytes.
#include <gtest/gtest.h>

#include <random>

#include "mem/pool.hpp"
#include "planp/interp.hpp"
#include "planp/jit.hpp"
#include "planp/parser.hpp"

namespace asp::planp {
namespace {

/// Generates random well-typed expressions over `ps : int` and a few lets.
class ExprGen {
 public:
  explicit ExprGen(std::uint32_t seed) : rng_(seed) {}

  std::string int_expr(int depth) {
    if (depth <= 0) return leaf();
    switch (rng_() % 12) {
      case 0: case 1: return leaf();
      case 2: return "(" + int_expr(depth - 1) + " + " + int_expr(depth - 1) + ")";
      case 3: return "(" + int_expr(depth - 1) + " - " + int_expr(depth - 1) + ")";
      case 4: return "(" + int_expr(depth - 1) + " * " + small() + ")";
      case 5:
        // Division can raise DivByZero; keep it under a try half the time so
        // both raising and non-raising paths are exercised.
        if (rng_() % 2 == 0) {
          return "(try " + int_expr(depth - 1) + " / " + int_expr(depth - 1) +
                 " with " + small() + ")";
        }
        return "(" + int_expr(depth - 1) + " % 7 + 1)";
      case 6:
        return "(if " + bool_expr(depth - 1) + " then " + int_expr(depth - 1) +
               " else " + int_expr(depth - 1) + ")";
      case 7: {
        std::string v = fresh();
        return "(let val " + v + " : int = " + int_expr(depth - 1) + " in " + v +
               " + " + v + " end)";
      }
      case 8: return "min(" + int_expr(depth - 1) + ", " + int_expr(depth - 1) + ")";
      case 9: return "max(" + int_expr(depth - 1) + ", " + small() + ")";
      case 10: return "abs(" + int_expr(depth - 1) + ")";
      default:
        return "(try (if " + bool_expr(depth - 1) + " then raise \"F\" else " +
               int_expr(depth - 1) + ") with " + small() + ")";
    }
  }

  std::string bool_expr(int depth) {
    if (depth <= 0) return rng_() % 2 == 0 ? "true" : "(ps > 0)";
    switch (rng_() % 6) {
      case 0: return "(" + int_expr(depth - 1) + " < " + int_expr(depth - 1) + ")";
      case 1: return "(" + int_expr(depth - 1) + " = " + int_expr(depth - 1) + ")";
      case 2: return "(" + bool_expr(depth - 1) + " and " + bool_expr(depth - 1) + ")";
      case 3: return "(" + bool_expr(depth - 1) + " or " + bool_expr(depth - 1) + ")";
      case 4: return "not " + bool_expr(depth - 1);
      default: return "(" + int_expr(depth - 1) + " >= " + small() + ")";
    }
  }

 private:
  std::string leaf() {
    switch (rng_() % 3) {
      case 0: return "ps";
      case 1: return small();
      default: return "(ps % 5)";
    }
  }
  std::string small() { return std::to_string(static_cast<int>(rng_() % 9) - 4); }
  std::string fresh() { return "v" + std::to_string(var_counter_++); }

  std::mt19937 rng_;
  int var_counter_ = 0;
};

struct Outcome {
  bool raised = false;
  std::string exception;
  std::int64_t value = 0;

  bool operator==(const Outcome& o) const {
    return raised == o.raised && exception == o.exception &&
           (raised || value == o.value);
  }
  std::string str() const {
    return raised ? "raise " + exception : std::to_string(value);
  }
};

Outcome run_one(Engine& engine, std::int64_t ps) {
  Value pkt = Value::of_tuple({Value::of_ip({}), Value::of_blob({1, 2, 3})});
  Outcome out;
  try {
    Value result = engine.run_channel(0, Value::of_int(ps), Value::unit(), pkt);
    out.value = result.as_tuple()[0].as_int();
  } catch (const PlanPException& e) {
    out.raised = true;
    out.exception = e.name;
  }
  return out;
}

void check_engines_agree(std::uint32_t seed) {
  ExprGen gen(seed);
  std::string body = gen.int_expr(5);
  std::string src =
      "channel c(ps : int, ss : unit, p : ip*blob) is\n"
      "  (deliver(p); ((" + body + "), ss))";

  CheckedProgram checked;
  try {
    checked = typecheck(parse(src));
  } catch (const PlanPError& e) {
    FAIL() << "generator produced an ill-formed program: " << e.what() << "\n" << src;
  }

  NullEnv env_i, env_j, env_u;
  Interp interp(checked, env_i);
  JitEngine jit(checked, env_j);
  JitEngine unfused(checked, env_u, /*fuse=*/false);

  for (std::int64_t ps : {-17, -3, -1, 0, 1, 2, 5, 42, 1000}) {
    Outcome a = run_one(interp, ps);
    Outcome b = run_one(jit, ps);
    Outcome c = run_one(unfused, ps);
    EXPECT_EQ(a, b) << "interp=" << a.str() << " jit=" << b.str() << " at ps=" << ps
                    << "\n" << src;
    EXPECT_EQ(a, c) << "interp=" << a.str() << " jit_nofuse=" << c.str()
                    << " at ps=" << ps << "\n" << src;
  }
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FuzzSeeds, EnginesAgreeOnRandomPrograms) { check_engines_agree(GetParam()); }

INSTANTIATE_TEST_SUITE_P(RandomPrograms, FuzzSeeds, ::testing::Range(0u, 40u));

// The same corpus under poison-on-free: every recycled buffer, tuple slot and
// execution frame is scribbled with sentinels between channel runs, so a
// use-after-recycle in any engine shows up as a divergence (or a loud
// sentinel value) rather than a silent right answer from stale memory.
class PoisonedFuzzSeeds : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void SetUp() override {
    prev_ = mem::poison_enabled();
    mem::set_poison(true);
  }
  void TearDown() override { mem::set_poison(prev_); }

 private:
  bool prev_ = false;
};

TEST_P(PoisonedFuzzSeeds, EnginesAgreeWithPoolPoisoning) {
  check_engines_agree(GetParam());
}

INSTANTIATE_TEST_SUITE_P(PoisonedPrograms, PoisonedFuzzSeeds,
                         ::testing::Range(0u, 20u));

}  // namespace
}  // namespace asp::planp
