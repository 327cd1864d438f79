// Run-time specializer: the JIT analog of the paper's Tempo pipeline.
//
// The paper generates a JIT automatically from the interpreter by partial
// evaluation: at download time, pre-compiled machine-code *templates* are
// assembled and patched with the program's constants, and the result runs
// on unboxed machine values. We reproduce the same architecture one level up:
// at download time the checked AST is lowered in one pass (compile.cpp) into
// threaded register code whose templates have
//   * pre-resolved handler addresses (computed-goto labels),
//   * typed operands: the type checker proves every expression monomorphic,
//     so `int`, `bool`, `char` and `host` values live in unboxed 8-byte
//     registers and headers in two; only strings, blobs, tuples and tables
//     are boxed Values,
//   * constants patched in as immediates or direct pointers; calls of pure
//     primitives on literals folded into constants,
//   * primitive entry points resolved to typed function pointers that read
//     their operands from the frame (planp/primitives.hpp),
//   * common sequences fused into superinstructions (compare-and-branch,
//     operations on an immediate).
// A channel reads its packet in place: the fields the body projects are
// loaded by offset from the arriving net::Packet when the channel starts,
// and sending the unmodified packet emits a copy of it (reemit_packet).
// Code generation is a cheap linear pass — the property Figure 3 of the
// paper measures.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "planp/interp.hpp"
#include "planp/netapi.hpp"

namespace asp::planp {

/// A typed frame location: the value's representation and its slot (a
/// register index for scalars and headers, a boxed-slot index otherwise).
struct Operand {
  Rep rep = Rep::kUnit;
  std::int32_t slot = -1;
};

/// Specialized instruction: a patched template. o[0] is the destination (or
/// a jump target), o[1..3] the operands; a typed primitive reads them as they
/// stand.
struct TInstr {
  const void* handler = nullptr;  // pre-resolved dispatch target
  std::int32_t op = 0;            // jop
  std::int32_t o[4] = {0, 0, 0, 0};
  std::int64_t imm = 0;       // immediate, projection index or result Rep
  const void* k = nullptr;    // patched constant, primitive, spec or name
};

/// Operands that do not fit a template: tuple elements, boxed-call and
/// user-call arguments, the fields of a packet built for sending.
struct JitSpec {
  std::vector<Operand> ops;
  const Primitive* prim = nullptr;
  std::int32_t fun = -1;  // callee function index
};

namespace jop {
enum : std::int32_t {
  kImm,          // r[d] = imm
  kConst,        // d = *k, unboxed as Rep imm
  kMove,         // r[d] = r[a]
  kMove2,        // r[d..d+1] = r[a..a+1]  (a header)
  kMoveBox,      // v[d] = v[a]
  kGlobal,       // d = globals[a], unboxed as Rep imm
  kBox,          // v[d] = box(Rep imm, a)
  kUnbox,        // d = unbox(Rep imm, v[a])
  kJump,         // pc = d
  kJumpIfFalse,  // if !r[a] then pc = d
  kJumpIfTrue,   // if r[a] then pc = d
  kRaise,        // throw PlanPException{k->as_string()}
  kTryPush,      // push handler at pc = d
  kTryPop,       // leave protected region
  kReturn,       // the block's result is in its result slot(s)
  kAdd,          // r[d] = r[a] op r[b], one template per operator
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
  kNot,          // r[d] = !r[a]
  kNeg,          // r[d] = -r[a]
  kEqBox,        // r[d] = v[a] equals v[b]
  kNeBox,
  kCmpBox,       // r[d] = compare(v[a], v[b]) <relation imm> 0  (strings)
  kConcat,       // v[d] = v[a] ^ v[b]
  kTuple,        // v[d] = tuple of spec ops
  kProj,         // d = element b of tuple v[a], unboxed as Rep imm
  kPrim,         // typed primitive entry k on o
  kPrimBoxed,    // d = spec.prim(boxed spec ops), unboxed as Rep imm
  kCallFun,      // d = functions[spec.fun](spec ops), Rep imm
  kSendPacket,   // send the arriving packet unmodified: kind a, tag b
  kSendFields,   // send a packet built from spec ops: kind a, tag b
  kSendValue,    // send encode_packet(v[c]): kind a, tag b
  kDrop,
  // superinstructions
  kAddImm,       // r[d] = r[a] op imm
  kSubImm,
  kEqImm,
  kNeImm,
  kLtImm,
  kLeImm,
  kGtImm,
  kGeImm,
  kJumpUnlessEq,     // if !(r[a] op r[b]) then pc = d
  kJumpUnlessNe,
  kJumpUnlessLt,
  kJumpUnlessLe,
  kJumpUnlessGt,
  kJumpUnlessGe,
  kJumpUnlessEqImm,  // if !(r[a] op imm) then pc = d
  kJumpUnlessNeImm,
  kJumpUnlessLtImm,
  kJumpUnlessLeImm,
  kJumpUnlessGtImm,
  kJumpUnlessGeImm,
  kCount,
};
}  // namespace jop

/// True for the templates whose o[0] is a jump target.
bool is_branch(std::int32_t op);

/// A packet field a channel body projects: where it lies in the arriving
/// packet and which frame slot it is loaded into when the channel starts.
struct PacketField {
  std::int32_t index = 0;       // position in the packet tuple
  Operand at;                   // frame slot it is loaded into
  DecodePlan::FieldOp op = DecodePlan::FieldOp::kBlob;  // payload fields
  std::uint32_t offset = 0;     // byte offset of a payload field
};

struct JitBlock {
  std::vector<TInstr> code;
  std::vector<Operand> params;  // functions: arguments; channels: ps, ss
  Operand result;               // where kReturn leaves the value (channels: ps)
  Operand ss_result;            // channels: where kReturn leaves the new ss
  std::int32_t regs = 0;        // registers and boxed slots of this block
  std::int32_t boxes = 0;
  std::int32_t frame_regs = 0;  // ... plus those of its deepest call chain
  std::int32_t frame_boxes = 0;
  // Channel bodies only: the packet fields the body reads, and the slot of
  // the packet as a whole tuple when the body uses it as a value (slot -1
  // when it never does).
  std::vector<PacketField> fields;
  Operand packet;
};

/// Statistics from one lowering run (Figure 3 reporting).
struct CodegenStats {
  double generation_ms = 0;      // wall time of the lowering pass
  std::size_t input_instrs = 0;  // templates without fusion
  std::size_t output_instrs = 0; // templates kept (after fusion)
  std::size_t code_bytes = 0;    // output_instrs * sizeof(TInstr)
  int source_lines = 0;
};

/// The specialized code of one program: every expression of the checked AST
/// lowered to typed templates and patched with constants, primitive entry
/// points and handler addresses. This is "code generation time", paid once
/// per compilation. Immutable once built, so any number of JitEngine
/// instances, on any shard, run the same templates and the same constants.
struct JitProgram {
  /// Lowers all of `prog` (compile.cpp), which must outlive the result.
  /// `fuse=false` emits no superinstructions (ablation studies: constants
  /// and primitives are still patched in, literal calls still folded).
  explicit JitProgram(const CheckedProgram& prog, bool fuse = true);
  // Templates point into `consts` and `specs`: they must never be copied.
  JitProgram(const JitProgram&) = delete;
  JitProgram& operator=(const JitProgram&) = delete;

  const CheckedProgram& prog;
  /// The constant pool and the operand specs. Deques, so the emitter can
  /// append while earlier templates already point at their elements. Every
  /// engine instance reads them at once; no const Value member writes.
  std::deque<Value> consts;
  std::deque<JitSpec> specs;
  std::vector<JitBlock> functions;
  std::vector<JitBlock> channel_bodies;
  std::vector<JitBlock> channel_inits;  // empty code => default_value(ss)
  std::vector<JitBlock> global_inits;   // one per top-level val
  std::vector<DecodePlan> plans;        // one per channel
  /// The flat frame an engine needs: the largest of its blocks' frames.
  std::int32_t frame_regs = 0;
  std::int32_t frame_boxes = 0;
  CodegenStats stats;
};

/// The JIT execution engine: one instance of a JitProgram. It owns what a
/// node must not share (the program's globals, the flat typed frame, the
/// try-handler stack) and runs channels on the shared specialized code.
class JitEngine : public Engine {
 public:
  /// Evaluates the globals against `env`. Nothing is specialized here.
  JitEngine(std::shared_ptr<const JitProgram> code, EnvApi& env);
  /// Shorthand for benches, tools and tests: lowers `prog` (`fuse=false`
  /// disables superinstruction fusion) and instantiates the result.
  JitEngine(const CheckedProgram& prog, EnvApi& env, bool fuse = true);

  Value init_state(int chan_idx) override;
  States run_channel(int chan_idx, const Value& ps, const Value& ss,
                     const asp::net::Packet& packet) override;
  const CheckedProgram& program() const override { return code_->prog; }
  const char* engine_name() const override { return "jit"; }

  const CodegenStats& codegen_stats() const { return code_->stats; }

 private:
  friend struct JitProgram;  // queries the handler table through run_block

  /// An active `try`: where its handler starts.
  struct TryFrame {
    std::int32_t handler_pc;
  };

  /// Executes one specialized block for `self` on the frame window `f`;
  /// calls run on the window just past the block's own slots. With
  /// `table_out` non-null the call is a pure query that touches nothing: it
  /// writes the handler label table (indexed by jop) and returns. This is
  /// how JitProgram obtains the addresses it patches into TInstr.
  static void run_block(JitEngine* self, const JitBlock& block, TypedFrame f,
                        const void* const** table_out = nullptr);
  /// One frame of the flat typed frame: registers and boxed slots, sized
  /// for the program's largest block.
  struct Frame {
    std::vector<std::int64_t> regs;
    std::vector<Value> boxes;
  };
  /// One activation of the engine (a channel run or an initializer): it takes
  /// the frame at the next depth, since a channel's sends can reach code that
  /// runs this engine again, and when it ends, however it ends, it drops every
  /// reference the frame holds (so a run pins nothing after it returns) and
  /// restores the depth and the packet of the run it interrupted.
  class Activation {
   public:
    explicit Activation(JitEngine& e);
    ~Activation();
    TypedFrame frame() { return TypedFrame{fr_.regs.data(), fr_.boxes.data()}; }

   private:
    JitEngine& e_;
    Frame& fr_;
    const asp::net::Packet* packet_;
    const DecodePlan* plan_;
  };

  /// Runs a parameterless block (global or channel init) and boxes its result.
  Value run_boxed(const JitBlock& block);
  /// Loads the packet fields `body` reads from `pkt`, by offset.
  static void bind_packet(const JitBlock& body, const DecodePlan& plan,
                          const asp::net::Packet& pkt, TypedFrame f);

  std::shared_ptr<const JitProgram> code_;
  EnvApi& env_;
  std::vector<Value> globals_;
  std::vector<std::unique_ptr<Frame>> frames_;  // by activation depth
  std::size_t depth_ = 0;
  std::vector<Value> args_;  // boxed arguments of a kPrimBoxed call
  /// The handlers of every active `try`, across all nested blocks: each
  /// run_block owns the entries above the size it found on entry. Reused
  /// call after call, so entering a `try` never allocates.
  std::vector<TryFrame> tries_;
  // The channel run in progress: its packet and plan (kSendPacket).
  const asp::net::Packet* packet_ = nullptr;
  const DecodePlan* plan_ = nullptr;
};

}  // namespace asp::planp
