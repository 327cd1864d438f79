#include "planp/jit.hpp"

namespace asp::planp {

namespace {

int compare_values(const Value& a, const Value& b) {
  if (const auto* s = std::get_if<std::string>(&a.rep())) return s->compare(b.as_string());
  if (const auto* c = std::get_if<char>(&a.rep())) return *c - b.as_char();
  std::int64_t x = a.as_int(), y = b.as_int();
  return x < y ? -1 : (x > y ? 1 : 0);
}

}  // namespace

JitEngine::JitEngine(std::shared_ptr<const JitProgram> code, EnvApi& env)
    : code_(std::move(code)), env_(env) {
  // Globals are per instance: a top-level val may read thisHost().
  globals_.reserve(code_->global_inits.size());
  for (const JitBlock& b : code_->global_inits) {
    Buffers& buf = buffer_at(0);
    buf.locals.assign(static_cast<std::size_t>(std::max(b.frame_slots, 8)), Value{});
    globals_.push_back(run_block(this, b, &buf));
  }
}

JitEngine::JitEngine(const CheckedProgram& prog, EnvApi& env, bool fuse)
    : JitEngine(std::make_shared<const JitProgram>(prog, fuse), env) {}

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
  const JitBlock& b = code_->channel_bodies.at(static_cast<std::size_t>(chan_idx));
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
// indirect jump per handler instead of a single shared dispatch point.
#define VM_DISPATCH() \
  in = &code[pc];     \
  ++pc;               \
  goto* in->handler

Value JitEngine::run_block(JitEngine* self, const JitBlock& block, Buffers* bufp,
                          const void* const** table_out) {
  // Must mirror the jop enum order exactly: entry i handles opcode i.
  static const void* const kLabels[jop::kCount] = {
      &&lbl_kConst,     &&lbl_kLoadLocal, &&lbl_kStoreLocal, &&lbl_kLoadGlobal,
      &&lbl_kJump,      &&lbl_kJumpIfFalse, &&lbl_kJumpIfTrue, &&lbl_kPop,
      &&lbl_kMakeTuple, &&lbl_kProj,      &&lbl_kCallPrim,   &&lbl_kCallFun,
      &&lbl_kNot,       &&lbl_kNeg,       &&lbl_kRaise,      &&lbl_kTryPush,
      &&lbl_kTryPop,    &&lbl_kSend,      &&lbl_kReturn,     &&lbl_kAdd,
      &&lbl_kSub,       &&lbl_kMul,       &&lbl_kDiv,        &&lbl_kMod,
      &&lbl_kEq,        &&lbl_kNe,        &&lbl_kLt,         &&lbl_kLe,
      &&lbl_kGt,        &&lbl_kGe,        &&lbl_kConcat,     &&lbl_kProjLocal,
      &&lbl_kMoveField, &&lbl_kCallPrim1L, &&lbl_kEqConst,   &&lbl_kReturnLocal,
      &&lbl_kSendConst, &&lbl_kAddConstLocal, &&lbl_kReturnPairLocal,
  };
  if (table_out != nullptr) {
    *table_out = kLabels;
    return Value{};
  }

  JitEngine& e = *self;
  Buffers& buf = *bufp;
  EnvApi& env = e.env_;
  // Re-entering through kCallFun uses the next pool slot, and this call's
  // handlers sit above `try_base` on the engine's try stack. The guard keeps
  // both correct even when an exception unwinds through this frame.
  struct FrameGuard {
    JitEngine& e;
    std::size_t try_base;
    explicit FrameGuard(JitEngine& eng) : e(eng), try_base(eng.tries_.size()) {
      ++e.depth_;
    }
    ~FrameGuard() {
      --e.depth_;
      e.tries_.resize(try_base);
    }
  } guard(e);

  std::vector<Value>& locals = buf.locals;
  std::vector<Value>& stack = buf.stack;
  stack.clear();
  if (stack.capacity() < static_cast<std::size_t>(block.max_stack)) {
    mem::ScopedAllocTag tag(mem::AllocTag::kFrame);
    stack.reserve(static_cast<std::size_t>(block.max_stack));
  }
  std::vector<Value>& scratch_args = buf.args;
  std::vector<TryFrame>& tries = e.tries_;
  const SInstr* code = block.code.data();
  const SInstr* in = nullptr;
  std::size_t pc = 0;

  for (;;) {
    try {
      VM_DISPATCH();
      lbl_kConst: stack.push_back(*in->k);
      VM_DISPATCH();
      lbl_kLoadLocal: stack.push_back(locals[static_cast<std::size_t>(in->a)]);
      VM_DISPATCH();
      lbl_kStoreLocal: {
        locals[static_cast<std::size_t>(in->a)] = std::move(stack.back());
        stack.pop_back();
      }
      VM_DISPATCH();
      lbl_kLoadGlobal: stack.push_back(e.globals_[static_cast<std::size_t>(in->a)]);
      VM_DISPATCH();
      lbl_kJump: pc = static_cast<std::size_t>(in->a);
      VM_DISPATCH();
      lbl_kJumpIfFalse: {
        bool c = stack.back().as_bool();
        stack.pop_back();
        if (!c) pc = static_cast<std::size_t>(in->a);
      }
      VM_DISPATCH();
      lbl_kJumpIfTrue: {
        bool c = stack.back().as_bool();
        stack.pop_back();
        if (c) pc = static_cast<std::size_t>(in->a);
      }
      VM_DISPATCH();
      lbl_kPop: stack.pop_back();
      VM_DISPATCH();
      lbl_kMakeTuple: {
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
      lbl_kProj: {
        Value t = std::move(stack.back());
        stack.pop_back();
        stack.push_back(t.tuple_at(static_cast<std::size_t>(in->a)));
      }
      VM_DISPATCH();
      lbl_kCallPrim: {
        std::size_t n = static_cast<std::size_t>(in->b);
        scratch_args.assign(stack.end() - static_cast<std::ptrdiff_t>(n),
                            stack.end());
        stack.resize(stack.size() - n);
        stack.push_back(in->prim->fn(env, scratch_args));
      }
      VM_DISPATCH();
      lbl_kCallFun: {
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
      lbl_kAdd: {
        std::int64_t b2 = stack.back().as_int();
        stack.pop_back();
        stack.back() = Value::of_int(stack.back().as_int() + b2);
      }
      VM_DISPATCH();
      lbl_kSub: {
        std::int64_t b2 = stack.back().as_int();
        stack.pop_back();
        stack.back() = Value::of_int(stack.back().as_int() - b2);
      }
      VM_DISPATCH();
      lbl_kMul: {
        std::int64_t b2 = stack.back().as_int();
        stack.pop_back();
        stack.back() = Value::of_int(stack.back().as_int() * b2);
      }
      VM_DISPATCH();
      lbl_kDiv: {
        std::int64_t b2 = stack.back().as_int();
        stack.pop_back();
        if (b2 == 0) throw PlanPException{"DivByZero"};
        stack.back() = Value::of_int(stack.back().as_int() / b2);
      }
      VM_DISPATCH();
      lbl_kMod: {
        std::int64_t b2 = stack.back().as_int();
        stack.pop_back();
        if (b2 == 0) throw PlanPException{"DivByZero"};
        stack.back() = Value::of_int(stack.back().as_int() % b2);
      }
      VM_DISPATCH();
      lbl_kEq: {
        Value b2 = std::move(stack.back());
        stack.pop_back();
        stack.back() = Value::of_bool(stack.back().equals(b2));
      }
      VM_DISPATCH();
      lbl_kNe: {
        Value b2 = std::move(stack.back());
        stack.pop_back();
        stack.back() = Value::of_bool(!stack.back().equals(b2));
      }
      VM_DISPATCH();
      lbl_kLt: lbl_kLe: lbl_kGt: lbl_kGe: {
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
      lbl_kConcat: {
        std::string b2 = stack.back().as_string();
        stack.pop_back();
        stack.back() = Value::of_string(stack.back().as_string() + b2);
      }
      VM_DISPATCH();
      lbl_kNot: stack.back() = Value::of_bool(!stack.back().as_bool());
      VM_DISPATCH();
      lbl_kNeg: stack.back() = Value::of_int(-stack.back().as_int());
      VM_DISPATCH();
      lbl_kRaise: throw PlanPException{in->k->as_string()};
      lbl_kTryPush: tries.push_back(TryFrame{in->a, stack.size()});
      VM_DISPATCH();
      lbl_kTryPop: tries.pop_back();
      VM_DISPATCH();
      lbl_kSend: {
        Value pkt = std::move(stack.back());
        stack.pop_back();
        // in->b holds the channel tag the type checker interned.
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
      lbl_kReturn: return std::move(stack.back());

      // --- superinstructions --------------------------------------------------
      lbl_kProjLocal: stack.push_back(
          locals[static_cast<std::size_t>(in->a)]
              .tuple_at(static_cast<std::size_t>(in->b)));
      VM_DISPATCH();
      lbl_kMoveField: {
        int field = in->b & 0xFFFF;
        int dst = in->b >> 16;
        locals[static_cast<std::size_t>(dst)] =
            locals[static_cast<std::size_t>(in->a)]
                .tuple_at(static_cast<std::size_t>(field));
      }
      VM_DISPATCH();
      lbl_kCallPrim1L: {
        scratch_args.assign(1, locals[static_cast<std::size_t>(in->a)]);
        stack.push_back(in->prim->fn(env, scratch_args));
      }
      VM_DISPATCH();
      lbl_kEqConst: stack.back() = Value::of_bool(stack.back().equals(*in->k));
      VM_DISPATCH();
      lbl_kReturnLocal: return locals[static_cast<std::size_t>(in->a)];
      lbl_kSendConst: {
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
      lbl_kAddConstLocal: stack.push_back(Value::of_int(
          locals[static_cast<std::size_t>(in->a)].as_int() + in->k->as_int()));
      VM_DISPATCH();
      lbl_kReturnPairLocal: {
        Value first = std::move(stack.back());
        stack.pop_back();
        return Value::of_pair(std::move(first),
                              locals[static_cast<std::size_t>(in->a)]);
      }
    } catch (const PlanPException&) {
      if (tries.size() == guard.try_base) throw;
      TryFrame t = tries.back();
      tries.pop_back();
      stack.resize(t.stack_depth);
      pc = static_cast<std::size_t>(t.handler_pc);
    }
  }
}

#undef VM_DISPATCH

}  // namespace asp::planp
