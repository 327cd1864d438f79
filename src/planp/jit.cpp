#include "planp/jit.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.hpp"

namespace asp::planp {

namespace {

std::int32_t jop_of_bincode(BinCode c) {
  switch (c) {
    case BinCode::kAdd: return jop::kAdd;
    case BinCode::kSub: return jop::kSub;
    case BinCode::kMul: return jop::kMul;
    case BinCode::kDiv: return jop::kDiv;
    case BinCode::kMod: return jop::kMod;
    case BinCode::kEq: return jop::kEq;
    case BinCode::kNe: return jop::kNe;
    case BinCode::kLt: return jop::kLt;
    case BinCode::kLe: return jop::kLe;
    case BinCode::kGt: return jop::kGt;
    case BinCode::kGe: return jop::kGe;
    case BinCode::kConcat: return jop::kConcat;
  }
  return jop::kAdd;
}

int compare_values(const Value& a, const Value& b) {
  if (const auto* s = std::get_if<std::string>(&a.rep())) return s->compare(b.as_string());
  if (const auto* c = std::get_if<char>(&a.rep())) return *c - b.as_char();
  std::int64_t x = a.as_int(), y = b.as_int();
  return x < y ? -1 : (x > y ? 1 : 0);
}

/// Does the block ever read local slot `slot`? Channel bodies keep the packet
/// in slot 2, so a false answer means the body is packet-oblivious and the
/// dispatcher can skip payload decoding (match-only classification). Function
/// calls are covered transitively: a callee only sees the packet if the
/// caller loaded slot 2 to pass it, which this scan catches.
bool block_reads_local(const JitBlock& b, std::int32_t slot) {
  for (const SInstr& s : b.code) {
    switch (s.op) {
      case jop::kLoadLocal:
      case jop::kStoreLocal:
      case jop::kProjLocal:
      case jop::kCallPrim1L:
      case jop::kReturnLocal:
      case jop::kAddConstLocal:
      case jop::kReturnPairLocal:
        if (s.a == slot) return true;
        break;
      case jop::kMoveField:
        // a = source slot, high bits of b = destination slot.
        if (s.a == slot || (s.b >> 16) == slot) return true;
        break;
      default:
        break;
    }
  }
  return false;
}

}  // namespace

/// Install-time-prepared dispatch handle: the body block is resolved once
/// (no .at() per packet) and packet use was analyzed at specialization, so
/// the match-action dispatcher can enter specialized code directly for each
/// packet.
class JitEngine::PreparedChannel : public Engine::Channel {
 public:
  PreparedChannel(JitEngine& e, const JitBlock& body, bool packet_used)
      : engine_(e), body_(body), packet_used_(packet_used) {}
  bool packet_used() const override { return packet_used_; }
  Value run(const Value& ps, const Value& ss, const Value& packet) override {
    return engine_.run_channel_body(body_, ps, ss, packet);
  }

 private:
  JitEngine& engine_;
  const JitBlock& body_;
  bool packet_used_;
};

JitBlock specialize_block(const CodeBlock& block, const CompiledProgram& prog,
                          bool fuse) {
  const auto& code = block.code;
  // Jump targets break fusion windows (a fused pair must not be jumped into
  // the middle of).
  std::unordered_set<std::size_t> targets;
  for (const Instr& in : code) {
    if (in.op == Op::kJump || in.op == Op::kJumpIfFalse || in.op == Op::kJumpIfTrue ||
        in.op == Op::kTryPush) {
      targets.insert(static_cast<std::size_t>(in.a));
    }
  }

  JitBlock out;
  out.frame_slots = block.frame_slots;
  out.max_stack = block.max_stack;
  std::vector<std::int32_t> new_pc(code.size() + 1, 0);

  auto konst = [&](std::int32_t idx) -> const Value* {
    return &prog.consts[static_cast<std::size_t>(idx)];
  };
  auto fusible = [&](std::size_t i) { return fuse && targets.count(i) == 0; };

  std::size_t i = 0;
  while (i < code.size()) {
    new_pc[i] = static_cast<std::int32_t>(out.code.size());
    const Instr& in = code[i];
    SInstr s{};

    // --- superinstruction templates -----------------------------------------
    // LoadLocal p; Proj f; StoreLocal x   =>  MoveField
    if (in.op == Op::kLoadLocal && i + 2 < code.size() && fusible(i + 1) &&
        fusible(i + 2) && code[i + 1].op == Op::kProj &&
        code[i + 2].op == Op::kStoreLocal) {
      s.op = jop::kMoveField;
      s.a = in.a;  // source slot
      // field index in the low 16 bits, destination slot in the high bits
      s.b = (code[i + 1].a & 0xFFFF) | (code[i + 2].a << 16);
      out.code.push_back(s);
      new_pc[i + 1] = new_pc[i];
      new_pc[i + 2] = new_pc[i];
      i += 3;
      continue;
    }
    // LoadLocal p; Proj f  =>  ProjLocal
    if (in.op == Op::kLoadLocal && i + 1 < code.size() && fusible(i + 1) &&
        code[i + 1].op == Op::kProj) {
      s.op = jop::kProjLocal;
      s.a = in.a;
      s.b = code[i + 1].a;
      out.code.push_back(s);
      new_pc[i + 1] = new_pc[i];
      i += 2;
      continue;
    }
    // LoadLocal x; CallPrim(p, 1)  =>  CallPrim1L
    if (in.op == Op::kLoadLocal && i + 1 < code.size() && fusible(i + 1) &&
        code[i + 1].op == Op::kCallPrim && code[i + 1].b == 1) {
      s.op = jop::kCallPrim1L;
      s.a = in.a;
      s.prim = &Primitives::instance().at(code[i + 1].a);
      out.code.push_back(s);
      new_pc[i + 1] = new_pc[i];
      i += 2;
      continue;
    }
    // Const k; BinOp(=)  =>  EqConst
    if (in.op == Op::kConst && i + 1 < code.size() && fusible(i + 1) &&
        code[i + 1].op == Op::kBinOp &&
        static_cast<BinCode>(code[i + 1].a) == BinCode::kEq) {
      s.op = jop::kEqConst;
      s.k = konst(in.a);
      out.code.push_back(s);
      new_pc[i + 1] = new_pc[i];
      i += 2;
      continue;
    }
    // LoadLocal x; Return  =>  ReturnLocal
    if (in.op == Op::kLoadLocal && i + 1 < code.size() && fusible(i + 1) &&
        code[i + 1].op == Op::kReturn) {
      s.op = jop::kReturnLocal;
      s.a = in.a;
      out.code.push_back(s);
      new_pc[i + 1] = new_pc[i];
      i += 2;
      continue;
    }
    // Const v; Send  =>  SendConst (the sent value is patched into the
    // template; the common `drop()` / `deliver(v)` shapes never touch the
    // stack at all)
    if (in.op == Op::kConst && i + 1 < code.size() && fusible(i + 1) &&
        code[i + 1].op == Op::kSend) {
      s.op = jop::kSendConst;
      s.a = code[i + 1].a;  // SendKind
      s.k = konst(in.a);    // the value being sent
      // interned channel id, as for kSend below
      s.b = static_cast<std::int32_t>(net::ChannelTags::intern(
          prog.consts[static_cast<std::size_t>(code[i + 1].b)].as_string()));
      out.code.push_back(s);
      new_pc[i + 1] = new_pc[i];
      i += 2;
      continue;
    }
    // Const; Pop  =>  nothing (dead sequence value, e.g. the unit a send
    // pushes when its result is discarded by `;`)
    if (in.op == Op::kConst && i + 1 < code.size() && fusible(i + 1) &&
        code[i + 1].op == Op::kPop) {
      new_pc[i + 1] = new_pc[i];
      i += 2;
      continue;
    }
    // LoadLocal x; Const k; Add  =>  AddConstLocal
    if (in.op == Op::kLoadLocal && i + 2 < code.size() && fusible(i + 1) &&
        fusible(i + 2) && code[i + 1].op == Op::kConst &&
        code[i + 2].op == Op::kBinOp &&
        static_cast<BinCode>(code[i + 2].a) == BinCode::kAdd) {
      s.op = jop::kAddConstLocal;
      s.a = in.a;
      s.k = konst(code[i + 1].a);
      out.code.push_back(s);
      new_pc[i + 1] = new_pc[i];
      new_pc[i + 2] = new_pc[i];
      i += 3;
      continue;
    }
    // LoadLocal y; MakeTuple 2; Return  =>  ReturnPairLocal — the dominant
    // channel epilogue `(ps', ss)` becomes one template
    if (in.op == Op::kLoadLocal && i + 2 < code.size() && fusible(i + 1) &&
        fusible(i + 2) && code[i + 1].op == Op::kMakeTuple &&
        code[i + 1].a == 2 && code[i + 2].op == Op::kReturn) {
      s.op = jop::kReturnPairLocal;
      s.a = in.a;
      out.code.push_back(s);
      new_pc[i + 1] = new_pc[i];
      new_pc[i + 2] = new_pc[i];
      i += 3;
      continue;
    }

    // --- 1:1 templates ---------------------------------------------------------
    switch (in.op) {
      case Op::kConst:
        s.op = jop::kConst;
        s.k = konst(in.a);
        break;
      case Op::kLoadLocal: s.op = jop::kLoadLocal; s.a = in.a; break;
      case Op::kStoreLocal: s.op = jop::kStoreLocal; s.a = in.a; break;
      case Op::kLoadGlobal: s.op = jop::kLoadGlobal; s.a = in.a; break;
      case Op::kJump: s.op = jop::kJump; s.a = in.a; break;
      case Op::kJumpIfFalse: s.op = jop::kJumpIfFalse; s.a = in.a; break;
      case Op::kJumpIfTrue: s.op = jop::kJumpIfTrue; s.a = in.a; break;
      case Op::kPop: s.op = jop::kPop; break;
      case Op::kDup: s.op = jop::kDup; break;
      case Op::kMakeTuple: s.op = jop::kMakeTuple; s.a = in.a; break;
      case Op::kProj: s.op = jop::kProj; s.a = in.a; break;
      case Op::kCallPrim:
        s.op = jop::kCallPrim;
        s.b = in.b;
        s.prim = &Primitives::instance().at(in.a);
        break;
      case Op::kCallFun: s.op = jop::kCallFun; s.a = in.a; s.b = in.b; break;
      case Op::kBinOp: s.op = jop_of_bincode(static_cast<BinCode>(in.a)); break;
      case Op::kNot: s.op = jop::kNot; break;
      case Op::kNeg: s.op = jop::kNeg; break;
      case Op::kRaise:
        s.op = jop::kRaise;
        s.k = konst(in.a);
        break;
      case Op::kTryPush: s.op = jop::kTryPush; s.a = in.a; break;
      case Op::kTryPop: s.op = jop::kTryPop; break;
      case Op::kSend:
        s.op = jop::kSend;
        s.a = in.a;
        s.k = konst(in.b);
        // Patch the interned channel id in at specialization time: the send
        // handler then dispatches by integer tag, never hashing the name on
        // the packet path. (Deliver/drop carry the empty name, tag 0.)
        s.b = static_cast<std::int32_t>(
            net::ChannelTags::intern(s.k->as_string()));
        break;
      case Op::kReturn: s.op = jop::kReturn; break;
    }
    out.code.push_back(s);
    ++i;
  }
  new_pc[code.size()] = static_cast<std::int32_t>(out.code.size());

  // Patch jump targets to specialized addresses.
  for (SInstr& s : out.code) {
    switch (s.op) {
      case jop::kJump:
      case jop::kJumpIfFalse:
      case jop::kJumpIfTrue:
      case jop::kTryPush:
        s.a = new_pc[static_cast<std::size_t>(s.a)];
        break;
      default:
        break;
    }
  }
  return out;
}

JitProgram::JitProgram(const CompiledProgram& compiled, bool fuse) : prog(compiled) {
  auto t0 = std::chrono::steady_clock::now();
  auto specialize_all = [&](const std::vector<CodeBlock>& in,
                            std::vector<JitBlock>& out) {
    out.reserve(in.size());
    for (const CodeBlock& b : in) out.push_back(specialize_block(b, prog, fuse));
  };
  specialize_all(prog.functions, functions);
  specialize_all(prog.channel_bodies, channel_bodies);
  specialize_all(prog.channel_inits, channel_inits);
  specialize_all(prog.global_inits, global_inits);
  auto t1 = std::chrono::steady_clock::now();
  stats.generation_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  stats.input_instrs = prog.total_instructions();
  for (const auto& v : {std::cref(functions), std::cref(channel_bodies),
                        std::cref(channel_inits), std::cref(global_inits)}) {
    for (const JitBlock& b : v.get()) stats.output_instrs += b.code.size();
  }
  stats.code_bytes = stats.output_instrs * sizeof(SInstr);
  if (prog.source != nullptr) stats.source_lines = prog.source->program.source_lines;

  // Direct threading: resolve each template's opcode to its handler address
  // once, here, so run_block dispatches with a single indirect goto instead
  // of a bounds-checked switch. Under the fallback build the table is null
  // and the handlers stay unpatched (the switch ignores them).
  const void* const* table = nullptr;
  JitEngine::run_block(nullptr, JitBlock{}, nullptr, &table);
  if (table != nullptr) {
    for (auto* blocks : {&functions, &channel_bodies, &channel_inits, &global_inits}) {
      for (JitBlock& blk : *blocks) {
        for (SInstr& s : blk.code) s.handler = table[static_cast<std::size_t>(s.op)];
      }
    }
  }

  // Channel bodies keep the packet in local slot 2.
  packet_used.reserve(channel_bodies.size());
  for (const JitBlock& b : channel_bodies) packet_used.push_back(block_reads_local(b, 2));

  // Figure 3 in registry form: specialization cost per compilation.
  obs::MetricsRegistry& reg = obs::registry();
  reg.histogram("planp/jit/codegen_us").observe(stats.generation_ms * 1000.0);
  reg.counter("planp/jit/compiles").inc();
  reg.counter("planp/jit/input_instrs").inc(stats.input_instrs);
  reg.counter("planp/jit/output_instrs").inc(stats.output_instrs);
}

JitEngine::JitEngine(std::shared_ptr<const JitProgram> code, EnvApi& env)
    : code_(std::move(code)), env_(env) {
  // The code is frozen, so the handles can keep direct block references.
  prepared_.reserve(code_->channel_bodies.size());
  for (std::size_t i = 0; i < code_->channel_bodies.size(); ++i) {
    prepared_.push_back(std::make_unique<PreparedChannel>(
        *this, code_->channel_bodies[i], code_->packet_used[i]));
  }
  // Globals are per instance: a top-level val may read thisHost().
  globals_.reserve(code_->global_inits.size());
  for (const JitBlock& b : code_->global_inits) {
    Buffers& buf = buffer_at(0);
    buf.locals.assign(static_cast<std::size_t>(std::max(b.frame_slots, 8)), Value{});
    globals_.push_back(run_block(this, b, &buf));
  }
}

JitEngine::JitEngine(const CompiledProgram& prog, EnvApi& env, bool fuse)
    : JitEngine(std::make_shared<const JitProgram>(prog, fuse), env) {}

JitEngine::~JitEngine() = default;

JitEngine::Buffers& JitEngine::buffer_at(int depth) {
  return arena_.at_depth(static_cast<std::size_t>(depth));
}

Value JitEngine::init_state(int chan_idx) {
  const JitBlock& b = code_->channel_inits.at(static_cast<std::size_t>(chan_idx));
  if (b.code.empty()) {
    return default_value(
        program().channels.at(static_cast<std::size_t>(chan_idx))->ss_type);
  }
  Buffers& buf = buffer_at(depth_);
  buf.locals.assign(static_cast<std::size_t>(std::max(b.frame_slots, 8)), Value{});
  return run_block(this, b, &buf);
}

Value JitEngine::run_channel(int chan_idx, const Value& ps, const Value& ss,
                             const Value& packet) {
  return run_channel_body(code_->channel_bodies.at(static_cast<std::size_t>(chan_idx)),
                          ps, ss, packet);
}

Engine::Channel* JitEngine::channel(int chan_idx) {
  return prepared_.at(static_cast<std::size_t>(chan_idx)).get();
}

Value JitEngine::run_channel_body(const JitBlock& b, const Value& ps,
                                  const Value& ss, const Value& packet) {
  Buffers& buf = buffer_at(depth_);
  std::size_t slots = static_cast<std::size_t>(std::max(b.frame_slots, 3));
  buf.locals.resize(slots);
  buf.locals[0] = ps;
  buf.locals[1] = ss;
  buf.locals[2] = packet;
  Value out = run_block(this, b, &buf);
  if (mem::poison_enabled()) {
    const Value sentinel = Value::of_int(mem::kPoisonInt);
    for (std::size_t d = 0; d < arena_.depth(); ++d) arena_.scribble(d, sentinel);
  }
  return out;
}

// Direct-threaded dispatch (GCC/Clang labels-as-values): every template
// carries its handler's address, so executing an instruction is one indirect
// goto — no bounds-checked switch, and the branch predictor sees one distinct
// indirect jump per handler instead of a single shared dispatch point. The
// portable switch fallback (ASP_NO_COMPUTED_GOTO, or non-GNU compilers)
// compiles the same handler bodies inside a switch.
#if (defined(__GNUC__) || defined(__clang__)) && !defined(ASP_NO_COMPUTED_GOTO)
#define ASP_JIT_THREADED 1
#define VM_DISPATCH() \
  in = &code[pc];     \
  ++pc;               \
  goto* in->handler
#define VM_CASE(name) lbl_##name
#else
#define ASP_JIT_THREADED 0
#define VM_DISPATCH() goto dispatch
#define VM_CASE(name) case jop::name
#endif

Value JitEngine::run_block(JitEngine* self, const JitBlock& block, Buffers* bufp,
                          const void* const** table_out) {
#if ASP_JIT_THREADED
  // Must mirror the jop enum order exactly: entry i handles opcode i.
  static const void* const kLabels[jop::kCount] = {
      &&lbl_kConst,     &&lbl_kLoadLocal, &&lbl_kStoreLocal, &&lbl_kLoadGlobal,
      &&lbl_kJump,      &&lbl_kJumpIfFalse, &&lbl_kJumpIfTrue, &&lbl_kPop,
      &&lbl_kDup,       &&lbl_kMakeTuple, &&lbl_kProj,       &&lbl_kCallPrim,
      &&lbl_kCallFun,   &&lbl_kNot,       &&lbl_kNeg,        &&lbl_kRaise,
      &&lbl_kTryPush,   &&lbl_kTryPop,    &&lbl_kSend,       &&lbl_kReturn,
      &&lbl_kAdd,       &&lbl_kSub,       &&lbl_kMul,        &&lbl_kDiv,
      &&lbl_kMod,       &&lbl_kEq,        &&lbl_kNe,         &&lbl_kLt,
      &&lbl_kLe,        &&lbl_kGt,        &&lbl_kGe,         &&lbl_kConcat,
      &&lbl_kProjLocal, &&lbl_kMoveField, &&lbl_kCallPrim1L, &&lbl_kEqConst,
      &&lbl_kReturnLocal, &&lbl_kSendConst, &&lbl_kAddConstLocal,
      &&lbl_kReturnPairLocal,
  };
  if (table_out != nullptr) {
    *table_out = kLabels;
    return Value{};
  }
#else
  if (table_out != nullptr) {
    *table_out = nullptr;
    return Value{};
  }
#endif

  JitEngine& e = *self;
  Buffers& buf = *bufp;
  EnvApi& env = e.env_;
  // Re-entering through kCallFun uses the next pool slot; the guard keeps
  // depth_ correct even when a PLAN-P exception unwinds through this frame.
  struct DepthGuard {
    int& d;
    explicit DepthGuard(int& depth) : d(depth) { ++d; }
    ~DepthGuard() { --d; }
  } guard(e.depth_);

  std::vector<Value>& locals = buf.locals;
  std::vector<Value>& stack = buf.stack;
  stack.clear();
  if (stack.capacity() < static_cast<std::size_t>(block.max_stack)) {
    mem::ScopedAllocTag tag(mem::AllocTag::kFrame);
    stack.reserve(static_cast<std::size_t>(block.max_stack));
  }
  std::vector<Value>& scratch_args = buf.args;
  struct TryFrame {
    std::int32_t handler_pc;
    std::size_t stack_depth;
  };
  std::vector<TryFrame> tries;
  const SInstr* code = block.code.data();
  const SInstr* in = nullptr;
  std::size_t pc = 0;

  for (;;) {
    try {
#if !ASP_JIT_THREADED
    dispatch:
      in = &code[pc];
      ++pc;
      switch (in->op) {
#else
      VM_DISPATCH();
#endif
        VM_CASE(kConst) : stack.push_back(*in->k);
        VM_DISPATCH();
        VM_CASE(kLoadLocal) : stack.push_back(locals[static_cast<std::size_t>(in->a)]);
        VM_DISPATCH();
        VM_CASE(kStoreLocal) : {
          locals[static_cast<std::size_t>(in->a)] = std::move(stack.back());
          stack.pop_back();
        }
        VM_DISPATCH();
        VM_CASE(kLoadGlobal) : stack.push_back(e.globals_[static_cast<std::size_t>(in->a)]);
        VM_DISPATCH();
        VM_CASE(kJump) : pc = static_cast<std::size_t>(in->a);
        VM_DISPATCH();
        VM_CASE(kJumpIfFalse) : {
          bool c = stack.back().as_bool();
          stack.pop_back();
          if (!c) pc = static_cast<std::size_t>(in->a);
        }
        VM_DISPATCH();
        VM_CASE(kJumpIfTrue) : {
          bool c = stack.back().as_bool();
          stack.pop_back();
          if (c) pc = static_cast<std::size_t>(in->a);
        }
        VM_DISPATCH();
        VM_CASE(kPop) : stack.pop_back();
        VM_DISPATCH();
        VM_CASE(kDup) : stack.push_back(stack.back());
        VM_DISPATCH();
        VM_CASE(kMakeTuple) : {
          std::size_t n = static_cast<std::size_t>(in->a);
          if (n == 2) {
            // Pairs dominate ASP tuples; scalar pairs store inline in the
            // Value (no shared_ptr<vector>, no allocation).
            Value second = std::move(stack.back());
            stack.pop_back();
            Value first = std::move(stack.back());
            stack.pop_back();
            stack.push_back(Value::of_pair(std::move(first), std::move(second)));
          } else {
            TupleRep t = Value::make_tuple_storage(n);
            t->assign(std::make_move_iterator(stack.end() - static_cast<std::ptrdiff_t>(n)),
                      std::make_move_iterator(stack.end()));
            stack.resize(stack.size() - n);
            stack.push_back(Value::of_tuple_rep(std::move(t)));
          }
        }
        VM_DISPATCH();
        VM_CASE(kProj) : {
          Value t = std::move(stack.back());
          stack.pop_back();
          stack.push_back(t.tuple_at(static_cast<std::size_t>(in->a)));
        }
        VM_DISPATCH();
        VM_CASE(kCallPrim) : {
          std::size_t n = static_cast<std::size_t>(in->b);
          scratch_args.assign(stack.end() - static_cast<std::ptrdiff_t>(n),
                              stack.end());
          stack.resize(stack.size() - n);
          stack.push_back(in->prim->fn(env, scratch_args));
        }
        VM_DISPATCH();
        VM_CASE(kCallFun) : {
          std::size_t n = static_cast<std::size_t>(in->b);
          const JitBlock& fb = e.code_->functions[static_cast<std::size_t>(in->a)];
          Buffers& fbuf = e.buffer_at(e.depth_);
          fbuf.locals.resize(static_cast<std::size_t>(
              std::max<int>(fb.frame_slots, static_cast<int>(n))));
          for (std::size_t k = 0; k < n; ++k) {
            fbuf.locals[n - 1 - k] = std::move(stack.back());
            stack.pop_back();
          }
          stack.push_back(run_block(self, fb, &fbuf));
        }
        VM_DISPATCH();
        VM_CASE(kAdd) : {
          std::int64_t b2 = stack.back().as_int();
          stack.pop_back();
          stack.back() = Value::of_int(stack.back().as_int() + b2);
        }
        VM_DISPATCH();
        VM_CASE(kSub) : {
          std::int64_t b2 = stack.back().as_int();
          stack.pop_back();
          stack.back() = Value::of_int(stack.back().as_int() - b2);
        }
        VM_DISPATCH();
        VM_CASE(kMul) : {
          std::int64_t b2 = stack.back().as_int();
          stack.pop_back();
          stack.back() = Value::of_int(stack.back().as_int() * b2);
        }
        VM_DISPATCH();
        VM_CASE(kDiv) : {
          std::int64_t b2 = stack.back().as_int();
          stack.pop_back();
          if (b2 == 0) throw PlanPException{"DivByZero"};
          stack.back() = Value::of_int(stack.back().as_int() / b2);
        }
        VM_DISPATCH();
        VM_CASE(kMod) : {
          std::int64_t b2 = stack.back().as_int();
          stack.pop_back();
          if (b2 == 0) throw PlanPException{"DivByZero"};
          stack.back() = Value::of_int(stack.back().as_int() % b2);
        }
        VM_DISPATCH();
        VM_CASE(kEq) : {
          Value b2 = std::move(stack.back());
          stack.pop_back();
          stack.back() = Value::of_bool(stack.back().equals(b2));
        }
        VM_DISPATCH();
        VM_CASE(kNe) : {
          Value b2 = std::move(stack.back());
          stack.pop_back();
          stack.back() = Value::of_bool(!stack.back().equals(b2));
        }
        VM_DISPATCH();
        VM_CASE(kLt) : VM_CASE(kLe) : VM_CASE(kGt) : VM_CASE(kGe) : {
          Value b2 = std::move(stack.back());
          stack.pop_back();
          int cmp = compare_values(stack.back(), b2);
          bool r = in->op == jop::kLt   ? cmp < 0
                   : in->op == jop::kLe ? cmp <= 0
                   : in->op == jop::kGt ? cmp > 0
                                        : cmp >= 0;
          stack.back() = Value::of_bool(r);
        }
        VM_DISPATCH();
        VM_CASE(kConcat) : {
          std::string b2 = stack.back().as_string();
          stack.pop_back();
          stack.back() = Value::of_string(stack.back().as_string() + b2);
        }
        VM_DISPATCH();
        VM_CASE(kNot) : stack.back() = Value::of_bool(!stack.back().as_bool());
        VM_DISPATCH();
        VM_CASE(kNeg) : stack.back() = Value::of_int(-stack.back().as_int());
        VM_DISPATCH();
        VM_CASE(kRaise) : throw PlanPException{in->k->as_string()};
        VM_CASE(kTryPush) : tries.push_back(TryFrame{in->a, stack.size()});
        VM_DISPATCH();
        VM_CASE(kTryPop) : tries.pop_back();
        VM_DISPATCH();
        VM_CASE(kSend) : {
          Value pkt = std::move(stack.back());
          stack.pop_back();
          // in->b holds the channel id interned at specialization time.
          switch (static_cast<SendKind>(in->a)) {
            case SendKind::kOnRemote:
              env.on_remote(static_cast<std::uint32_t>(in->b), pkt);
              break;
            case SendKind::kOnNeighbor:
              env.on_neighbor(static_cast<std::uint32_t>(in->b), pkt);
              break;
            case SendKind::kDeliver: env.deliver(pkt); break;
            case SendKind::kDrop: env.drop(); break;
          }
        }
        VM_DISPATCH();
        VM_CASE(kReturn) : return std::move(stack.back());

        // --- superinstructions --------------------------------------------------
        VM_CASE(kProjLocal) : stack.push_back(
            locals[static_cast<std::size_t>(in->a)]
                .tuple_at(static_cast<std::size_t>(in->b)));
        VM_DISPATCH();
        VM_CASE(kMoveField) : {
          int field = in->b & 0xFFFF;
          int dst = in->b >> 16;
          locals[static_cast<std::size_t>(dst)] =
              locals[static_cast<std::size_t>(in->a)]
                  .tuple_at(static_cast<std::size_t>(field));
        }
        VM_DISPATCH();
        VM_CASE(kCallPrim1L) : {
          scratch_args.assign(1, locals[static_cast<std::size_t>(in->a)]);
          stack.push_back(in->prim->fn(env, scratch_args));
        }
        VM_DISPATCH();
        VM_CASE(kEqConst) : stack.back() = Value::of_bool(stack.back().equals(*in->k));
        VM_DISPATCH();
        VM_CASE(kReturnLocal) : return locals[static_cast<std::size_t>(in->a)];
        VM_CASE(kSendConst) : {
          switch (static_cast<SendKind>(in->a)) {
            case SendKind::kOnRemote:
              env.on_remote(static_cast<std::uint32_t>(in->b), *in->k);
              break;
            case SendKind::kOnNeighbor:
              env.on_neighbor(static_cast<std::uint32_t>(in->b), *in->k);
              break;
            case SendKind::kDeliver: env.deliver(*in->k); break;
            case SendKind::kDrop: env.drop(); break;
          }
        }
        VM_DISPATCH();
        VM_CASE(kAddConstLocal) : stack.push_back(Value::of_int(
            locals[static_cast<std::size_t>(in->a)].as_int() + in->k->as_int()));
        VM_DISPATCH();
        VM_CASE(kReturnPairLocal) : {
          Value first = std::move(stack.back());
          stack.pop_back();
          return Value::of_pair(std::move(first),
                                locals[static_cast<std::size_t>(in->a)]);
        }

#if !ASP_JIT_THREADED
        default:
          throw EvalBug{"jit: bad opcode"};
      }
#endif
    } catch (const PlanPException&) {
      if (tries.empty()) throw;
      TryFrame t = tries.back();
      tries.pop_back();
      stack.resize(t.stack_depth);
      pc = static_cast<std::size_t>(t.handler_pc);
    }
  }
}

#undef VM_DISPATCH
#undef VM_CASE

}  // namespace asp::planp
