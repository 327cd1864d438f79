// Run-time specializer: the JIT analog of the paper's Tempo pipeline.
//
// The paper generates a JIT automatically from the interpreter by partial
// evaluation: at download time, pre-compiled machine-code *templates* are
// assembled and patched with the program's constants. We reproduce the same
// architecture one level up: at download time each bytecode block is
// specialized into threaded code whose instruction templates have
//   * pre-resolved handler addresses (computed-goto labels / fn dispatch),
//   * constants patched in as direct pointers (no pool indirection),
//   * primitive entry points resolved to function pointers,
//   * common instruction sequences fused into superinstructions
//     (e.g. `val iph : ip = #1 p` becomes one MoveField template).
// Code generation is therefore a cheap linear pass — the property Figure 3
// of the paper measures.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "planp/compile.hpp"
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
  // by JitProgram at specialization time; null until then, and unused when
  // the portable switch fallback is compiled (ASP_NO_COMPUTED_GOTO).
  const void* handler = nullptr;
};

/// Specialized ops. The first block mirrors Op; the rest are superinstructions
/// and split arithmetic templates.
namespace jop {
enum : std::int32_t {
  kConst,
  kLoadLocal,
  kStoreLocal,
  kLoadGlobal,
  kJump,
  kJumpIfFalse,
  kJumpIfTrue,
  kPop,
  kDup,
  kMakeTuple,
  kProj,
  kCallPrim,
  kCallFun,
  kNot,
  kNeg,
  kRaise,
  kTryPush,
  kTryPop,
  kSend,
  kReturn,
  // split binary ops (template per operator)
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
  kMoveField,    // locals[b] = locals[a].tuple[k->int]  (fused let-projection)
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
  int max_stack = 0;
};

/// Statistics from one specialization run (Figure 3 reporting).
struct CodegenStats {
  double generation_ms = 0;      // wall time of the specialization pass
  std::size_t input_instrs = 0;  // bytecode instructions consumed
  std::size_t output_instrs = 0; // templates emitted (after fusion)
  std::size_t code_bytes = 0;    // output_instrs * sizeof(SInstr)
  int source_lines = 0;
};

/// Specializes one bytecode block. `fuse` disables superinstruction fusion
/// (ablation: constants and primitives are still patched in).
JitBlock specialize_block(const CodeBlock& block, const CompiledProgram& prog,
                          bool fuse = true);

/// The specialized code of one program: every block taken through
/// specialize_block, with each template's handler address patched in. This
/// is "code generation time", paid once per compilation. Immutable once
/// built, so any number of JitEngine instances, on any shard, run the same
/// templates and the same constants.
struct JitProgram {
  /// Specializes all of `prog`, which must outlive the result: templates
  /// point into its constant pool. `fuse=false` disables superinstruction
  /// fusion (ablation studies).
  explicit JitProgram(const CompiledProgram& prog, bool fuse = true);

  const CompiledProgram& prog;
  std::vector<JitBlock> functions;
  std::vector<JitBlock> channel_bodies;
  std::vector<JitBlock> channel_inits;
  std::vector<JitBlock> global_inits;
  /// Per channel: does the body read its packet local? A body that never
  /// does lets the dispatcher skip payload decoding (match-only
  /// classification).
  std::vector<bool> packet_used;
  CodegenStats stats;
};

/// The JIT execution engine: one instance of a JitProgram. It owns what a
/// node must not share (the program's globals, the execution frames and the
/// call depth) and runs channels on the shared specialized code.
class JitEngine : public Engine {
 public:
  /// Evaluates the globals against `env` and prepares the channels. Nothing
  /// is specialized here.
  JitEngine(std::shared_ptr<const JitProgram> code, EnvApi& env);
  /// Shorthand for benches, tools and tests: specializes `prog` (`fuse=false`
  /// disables superinstruction fusion) and instantiates the result.
  JitEngine(const CompiledProgram& prog, EnvApi& env, bool fuse = true);
  ~JitEngine() override;  // out of line: PreparedChannel is incomplete here

  Value init_state(int chan_idx) override;
  Value run_channel(int chan_idx, const Value& ps, const Value& ss,
                    const Value& packet) override;
  /// Prepared handle with the body block pre-resolved and the packet-use
  /// flag taken from the JitProgram.
  Channel* channel(int chan_idx) override;
  const CheckedProgram& program() const override { return *code_->prog.source; }
  const char* engine_name() const override { return "jit"; }

  const CodegenStats& codegen_stats() const { return code_->stats; }

 private:
  friend struct JitProgram;  // queries the handler table through run_block

  /// Per-call-depth execution frames (locals/stack/args) on a shared arena:
  /// warm vectors reused packet after packet, no per-call allocation (part of
  /// what run-time specialization buys the paper). The arena exports
  /// mem/jit_frames/* pool metrics and supports poison scribbling.
  using Buffers = mem::FrameArena<Value>::Frame;

  /// Executes one specialized block for `self`. With `table_out` non-null
  /// the call is a pure query that touches neither `self` nor `buf`: it
  /// writes the handler label table (indexed by jop, or null when built with
  /// the switch fallback) and returns immediately. This is how JitProgram
  /// obtains the addresses it patches into SInstr.
  static Value run_block(JitEngine* self, const JitBlock& block, Buffers* buf,
                         const void* const** table_out = nullptr);
  Buffers& buffer_at(int depth);
  /// run_channel with the body block already resolved (prepared channels).
  Value run_channel_body(const JitBlock& b, const Value& ps, const Value& ss,
                         const Value& packet);

  class PreparedChannel;

  std::shared_ptr<const JitProgram> code_;
  EnvApi& env_;
  std::vector<Value> globals_;
  std::vector<std::unique_ptr<PreparedChannel>> prepared_;
  mem::FrameArena<Value> arena_;
  int depth_ = 0;
};

}  // namespace asp::planp
