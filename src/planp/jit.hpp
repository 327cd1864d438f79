// Run-time specializer: the JIT analog of the paper's Tempo pipeline.
//
// The paper generates a JIT automatically from the interpreter by partial
// evaluation: at download time, pre-compiled machine-code *templates* are
// assembled and patched with the program's constants. We reproduce the same
// architecture one level up: at download time the checked AST is lowered in
// one pass (compile.cpp) into threaded code whose instruction templates have
//   * pre-resolved handler addresses (computed-goto labels),
//   * constants patched in as direct pointers (no pool indirection),
//   * primitive entry points resolved to function pointers,
//   * common instruction sequences fused into superinstructions
//     (e.g. `val iph : ip = #1 p` becomes one MoveField template).
// Code generation is therefore a cheap linear pass — the property Figure 3
// of the paper measures.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "planp/interp.hpp"

namespace asp::planp {

/// Specialized instruction: a patched template.
struct SInstr {
  std::int32_t op;  // JOp
  std::int32_t a = 0;
  std::int32_t b = 0;
  const Value* k = nullptr;       // patched constant
  const Primitive* prim = nullptr;  // patched primitive entry point
  // Pre-resolved dispatch target: the address of this op's handler label
  // inside run_block (direct threading, GCC/Clang labels-as-values). Patched
  // by JitProgram once the block is final; null until then.
  const void* handler = nullptr;
};

/// Specialized ops. The first block is what the emitter writes; the
/// superinstructions are what fusion rewrites common sequences into.
namespace jop {
enum : std::int32_t {
  kConst,        // push *k
  kLoadLocal,    // push locals[a]
  kStoreLocal,   // locals[a] = pop
  kLoadGlobal,   // push globals[a]
  kJump,         // pc = a
  kJumpIfFalse,  // if !pop then pc = a
  kJumpIfTrue,   // if pop then pc = a
  kPop,          // discard top
  kMakeTuple,    // pop a values, push tuple
  kProj,         // push pop.tuple[a]  (a is 0-based)
  kCallPrim,     // push prim(pop b args)
  kCallFun,      // push fun[a](pop b args)
  kNot,
  kNeg,
  kRaise,        // throw PlanPException{k->string}
  kTryPush,      // push handler at pc=a
  kTryPop,       // leave protected region
  kSend,         // a = SendKind, b = channel tag, k = channel name; pops packet
  kReturn,       // return pop
  // binary ops, one template per operator
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kConcat,
  // superinstructions
  kProjLocal,    // push locals[a].tuple[b]
  kMoveField,    // locals[b >> 16] = locals[a].tuple[b & 0xFFFF]  (fused let-projection)
  kCallPrim1L,   // push prim(locals[a])
  kEqConst,      // top = (top == *k)
  kReturnLocal,  // return locals[a]
  kSendConst,      // send(*k) with kind a / channel tag b, no stack traffic
  kAddConstLocal,  // push locals[a] + *k
  kReturnPairLocal,  // return (pop(), locals[a])
  kCount,
};
}  // namespace jop

struct JitBlock {
  std::vector<SInstr> code;
  int frame_slots = 0;
  int max_stack = 0;  // conservative bound, set by the emitter
};

/// Statistics from one lowering run (Figure 3 reporting).
struct CodegenStats {
  double generation_ms = 0;      // wall time of the lowering pass
  std::size_t input_instrs = 0;  // templates emitted before fusion
  std::size_t output_instrs = 0; // templates kept (after fusion)
  std::size_t code_bytes = 0;    // output_instrs * sizeof(SInstr)
  int source_lines = 0;
};

/// The specialized code of one program: every expression of the checked AST
/// lowered to templates, fused, and patched with constants, primitive entry
/// points and handler addresses. This is "code generation time", paid once
/// per compilation. Immutable once built, so any number of JitEngine
/// instances, on any shard, run the same templates and the same constants.
struct JitProgram {
  /// Lowers all of `prog` (compile.cpp), which must outlive the result.
  /// `fuse=false` disables superinstruction fusion (ablation studies:
  /// constants and primitives are still patched in).
  explicit JitProgram(const CheckedProgram& prog, bool fuse = true);
  // Templates point into `consts`: the pool must never be copied.
  JitProgram(const JitProgram&) = delete;
  JitProgram& operator=(const JitProgram&) = delete;

  const CheckedProgram& prog;
  /// The constant pool. A deque, so the emitter can append while earlier
  /// templates already point at its elements. Frozen: every engine instance
  /// reads it at once.
  std::deque<Value> consts;
  std::vector<JitBlock> functions;
  std::vector<JitBlock> channel_bodies;
  std::vector<JitBlock> channel_inits;  // empty code => default_value(ss)
  std::vector<JitBlock> global_inits;   // one per top-level val
  /// Per channel: does the body read its packet local? A body that never
  /// does lets the dispatcher skip payload decoding (match-only
  /// classification).
  std::vector<bool> packet_used;
  CodegenStats stats;
};

/// The JIT execution engine: one instance of a JitProgram. It owns what a
/// node must not share (the program's globals, the execution frames, the
/// try-handler stack and the call depth) and runs channels on the shared
/// specialized code.
class JitEngine : public Engine {
 public:
  /// Evaluates the globals against `env`. Nothing is specialized here.
  JitEngine(std::shared_ptr<const JitProgram> code, EnvApi& env);
  /// Shorthand for benches, tools and tests: lowers `prog` (`fuse=false`
  /// disables superinstruction fusion) and instantiates the result.
  JitEngine(const CheckedProgram& prog, EnvApi& env, bool fuse = true);

  Value init_state(int chan_idx) override;
  Value run_channel(int chan_idx, const Value& ps, const Value& ss,
                    const Value& packet) override;
  bool packet_used(int chan_idx) const override {
    return code_->packet_used[static_cast<std::size_t>(chan_idx)];
  }
  const CheckedProgram& program() const override { return code_->prog; }
  const char* engine_name() const override { return "jit"; }

  const CodegenStats& codegen_stats() const { return code_->stats; }

 private:
  friend struct JitProgram;  // queries the handler table through run_block

  /// Per-call-depth execution frames (locals/stack/args) on a shared arena:
  /// warm vectors reused packet after packet, no per-call allocation (part of
  /// what run-time specialization buys the paper). The arena supports poison
  /// scribbling.
  using Buffers = mem::FrameArena<Value>::Frame;

  /// An active `try`: where its handler starts and the operand-stack depth
  /// to unwind to.
  struct TryFrame {
    std::int32_t handler_pc;
    std::size_t stack_depth;
  };

  /// Executes one specialized block for `self`. With `table_out` non-null
  /// the call is a pure query that touches neither `self` nor `buf`: it
  /// writes the handler label table (indexed by jop) and returns
  /// immediately. This is how JitProgram obtains the addresses it patches
  /// into SInstr.
  static Value run_block(JitEngine* self, const JitBlock& block, Buffers* buf,
                         const void* const** table_out = nullptr);
  Buffers& buffer_at(int depth);

  std::shared_ptr<const JitProgram> code_;
  EnvApi& env_;
  std::vector<Value> globals_;
  mem::FrameArena<Value> arena_;
  /// The handlers of every active `try`, across all nested blocks: each
  /// run_block owns the entries above the size it found on entry. Reused
  /// call after call, so entering a `try` never allocates.
  std::vector<TryFrame> tries_;
  int depth_ = 0;
};

}  // namespace asp::planp
