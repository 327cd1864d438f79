// AST -> bytecode compiler: the front end of the run-time specializer.
//
// The bytecode is the intermediate form the JIT (jit.hpp) consumes. Nothing
// executes it directly; the interpreter (interp.hpp) remains the reference
// semantics both engines are checked against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "planp/typecheck.hpp"
#include "planp/value.hpp"

namespace asp::planp {

enum class Op : std::uint8_t {
  kConst,        // push consts[a]
  kLoadLocal,    // push locals[a]
  kStoreLocal,   // locals[a] = pop
  kLoadGlobal,   // push globals[a]
  kJump,         // pc = a
  kJumpIfFalse,  // if !pop then pc = a
  kJumpIfTrue,   // if pop then pc = a
  kPop,          // discard top
  kDup,          // duplicate top
  kMakeTuple,    // pop a values, push tuple
  kProj,         // push pop.tuple[a]  (a is 0-based)
  kCallPrim,     // push prim[a](pop b args)
  kCallFun,      // push fun[a](pop b args)
  kBinOp,        // a = BinCode
  kNot,
  kNeg,
  kRaise,        // throw PlanPException{consts[a].string}
  kTryPush,      // push handler at pc=a
  kTryPop,       // leave protected region
  kSend,         // a = SendKind, b = const idx of channel name; pops packet
  kReturn,       // return pop
};

enum class BinCode : std::int32_t {
  kAdd, kSub, kMul, kDiv, kMod, kEq, kNe, kLt, kLe, kGt, kGe, kConcat,
};

struct Instr {
  Op op;
  std::int32_t a = 0;
  std::int32_t b = 0;
};

struct CodeBlock {
  std::vector<Instr> code;
  int frame_slots = 0;
  int max_stack = 0;  // conservative bound, set by the compiler
};

/// A fully compiled protocol.
struct CompiledProgram {
  const CheckedProgram* source = nullptr;
  std::vector<Value> consts;
  std::vector<CodeBlock> global_inits;    // one per top-level val
  std::vector<CodeBlock> functions;       // per user function
  std::vector<CodeBlock> channel_bodies;  // per channel
  std::vector<CodeBlock> channel_inits;   // empty code => default_value(ss)

  std::size_t total_instructions() const;
};

/// Compiles a checked program. Pure; no EnvApi needed.
CompiledProgram compile(const CheckedProgram& prog);

}  // namespace asp::planp
