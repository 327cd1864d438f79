#include "planp/jit.hpp"

namespace asp::planp {

namespace {

int compare_values(const Value& a, const Value& b) {
  if (const auto* s = std::get_if<std::string>(&a.rep())) return s->compare(b.as_string());
  if (const auto* c = std::get_if<char>(&a.rep())) return *c - b.as_char();
  std::int64_t x = a.as_int(), y = b.as_int();
  return x < y ? -1 : (x > y ? 1 : 0);
}

/// Copies the value of `rep` at slot `a` of `from` to slot `d` of `to`.
void copy_slot(Rep rep, TypedFrame from, std::int32_t a, TypedFrame to, std::int32_t d) {
  switch (reg_width(rep)) {
    case 0: to.v[d] = from.v[a]; return;
    case 2: to.r[d + 1] = from.r[a + 1]; [[fallthrough]];
    default: to.r[d] = from.r[a]; return;
  }
}

/// Reads the big-endian int32 at `b`, sign-extended, as decode_packet does.
std::int64_t get_int32(const std::uint8_t* b) {
  return static_cast<std::int32_t>((std::uint32_t{b[0]} << 24) | (std::uint32_t{b[1]} << 16) |
                                   (std::uint32_t{b[2]} << 8) | b[3]);
}

}  // namespace

JitEngine::JitEngine(std::shared_ptr<const JitProgram> code, EnvApi& env)
    : code_(std::move(code)), env_(env) {
  // Globals are per instance: a top-level val may read thisHost().
  globals_.reserve(code_->global_inits.size());
  for (const JitBlock& b : code_->global_inits) globals_.push_back(run_boxed(b));
}

JitEngine::JitEngine(const CheckedProgram& prog, EnvApi& env, bool fuse)
    : JitEngine(std::make_shared<const JitProgram>(prog, fuse), env) {}

JitEngine::Activation::Activation(JitEngine& e)
    : e_(e),
      fr_([&e]() -> Frame& {
        if (e.depth_ == e.frames_.size()) {
          mem::ScopedAllocTag tag(mem::AllocTag::kFrame);
          auto fr = std::make_unique<Frame>();
          fr->regs.resize(static_cast<std::size_t>(e.code_->frame_regs));
          fr->boxes.resize(static_cast<std::size_t>(e.code_->frame_boxes));
          e.frames_.push_back(std::move(fr));
        }
        return *e.frames_[e.depth_++];
      }()),
      packet_(e.packet_),
      plan_(e.plan_) {}

JitEngine::Activation::~Activation() {
  e_.args_.clear();
  if (mem::poison_enabled()) {
    // A stale read of any slot now sees the sentinel; the differential fuzz
    // suite runs with this on to catch reads of slots a run did not write.
    std::fill(fr_.regs.begin(), fr_.regs.end(), mem::kPoisonInt);
    std::fill(fr_.boxes.begin(), fr_.boxes.end(), Value::of_int(mem::kPoisonInt));
  } else {
    for (Value& v : fr_.boxes) {
      if (!v.is_unit()) v = Value{};
    }
  }
  --e_.depth_;
  e_.packet_ = packet_;
  e_.plan_ = plan_;
}

Value JitEngine::run_boxed(const JitBlock& b) {
  Activation act(*this);
  run_block(this, b, act.frame());
  return box(b.result.rep, act.frame(), b.result.slot);
}

Value JitEngine::init_state(int chan_idx) {
  const JitBlock& b = code_->channel_inits.at(static_cast<std::size_t>(chan_idx));
  if (b.code.empty()) {
    return default_value(
        program().channels.at(static_cast<std::size_t>(chan_idx))->ss_type);
  }
  return run_boxed(b);
}

void JitEngine::bind_packet(const JitBlock& body, const DecodePlan& plan,
                            const asp::net::Packet& pkt, TypedFrame f) {
  if (!plan.valid) throw EvalBug{"packet type has no wire decoding"};
  // A header-only plan on a TCP or UDP packet reads its payload fields from
  // the transport header serialized in front of the payload.
  Blob serialized;
  const std::vector<std::uint8_t>* bytes = &pkt.payload.bytes();
  for (const PacketField& fld : body.fields) {
    switch (fld.at.rep) {
      case Rep::kIp: store_header(f.r + fld.at.slot, pkt.ip); continue;
      case Rep::kTcp: store_header(f.r + fld.at.slot, *pkt.tcp); continue;
      case Rep::kUdp: store_header(f.r + fld.at.slot, *pkt.udp); continue;
      default: break;
    }
    if (serialized == nullptr && transport_in_payload(pkt, plan)) {
      serialized = asp::net::make_buffer(serialized_payload(pkt));
      bytes = serialized.get();
    }
    const std::uint8_t* at = bytes->data() + fld.offset;
    switch (fld.op) {
      case DecodePlan::FieldOp::kChar: f.r[fld.at.slot] = static_cast<char>(*at); break;
      case DecodePlan::FieldOp::kBool: f.r[fld.at.slot] = *at != 0; break;
      case DecodePlan::FieldOp::kInt: f.r[fld.at.slot] = get_int32(at); break;
      case DecodePlan::FieldOp::kBlob:
        // A blob that starts the bytes aliases their buffer, as decode does.
        if (fld.offset == 0) {
          f.v[fld.at.slot] =
              Value::of_blob_shared(serialized != nullptr ? serialized : pkt.payload.buffer());
        } else {
          f.v[fld.at.slot] = Value::of_blob(
              std::vector<std::uint8_t>(at, bytes->data() + bytes->size()));
        }
        break;
    }
  }
  if (body.packet.slot >= 0) f.v[body.packet.slot] = *decode_packet(pkt, plan);
}

States JitEngine::run_channel(int chan_idx, const Value& ps, const Value& ss,
                              const asp::net::Packet& packet) {
  const auto idx = static_cast<std::size_t>(chan_idx);
  const JitBlock& b = code_->channel_bodies.at(idx);
  Activation act(*this);
  TypedFrame f = act.frame();
  unbox(b.params[0].rep, ps, f, b.params[0].slot);
  unbox(b.params[1].rep, ss, f, b.params[1].slot);
  packet_ = &packet;
  plan_ = &code_->plans[idx];
  bind_packet(b, *plan_, packet, f);
  run_block(this, b, f);
  auto take = [f](Operand o) {
    return o.rep == Rep::kBox ? std::move(f.v[o.slot]) : box(o.rep, f, o.slot);
  };
  return {take(b.result), take(b.ss_result)};
}

// Direct-threaded dispatch (GCC/Clang labels-as-values): every template
// carries its handler's address, so executing an instruction is one indirect
// goto — no bounds-checked switch, and the branch predictor sees one distinct
// indirect jump per handler instead of a single shared dispatch point.
#define VM_DISPATCH() \
  in = &code[pc];     \
  ++pc;               \
  goto* in->handler

void JitEngine::run_block(JitEngine* self, const JitBlock& block, TypedFrame f,
                          const void* const** table_out) {
  // Must mirror the jop enum order exactly: entry i handles opcode i.
  static const void* const kLabels[jop::kCount] = {
      &&lbl_kImm,          &&lbl_kConst,        &&lbl_kMove,
      &&lbl_kMove2,        &&lbl_kMoveBox,      &&lbl_kGlobal,
      &&lbl_kBox,          &&lbl_kUnbox,        &&lbl_kJump,         &&lbl_kJumpIfFalse,
      &&lbl_kJumpIfTrue,   &&lbl_kRaise,        &&lbl_kTryPush,
      &&lbl_kTryPop,       &&lbl_kReturn,       &&lbl_kAdd,
      &&lbl_kSub,          &&lbl_kMul,          &&lbl_kDiv,
      &&lbl_kMod,          &&lbl_kEq,           &&lbl_kNe,
      &&lbl_kLt,           &&lbl_kLe,           &&lbl_kGt,
      &&lbl_kGe,           &&lbl_kNot,          &&lbl_kNeg,
      &&lbl_kEqBox,        &&lbl_kNeBox,        &&lbl_kCmpBox,
      &&lbl_kConcat,       &&lbl_kTuple,        &&lbl_kProj,
      &&lbl_kPrim,         &&lbl_kPrimBoxed,    &&lbl_kCallFun,
      &&lbl_kSendPacket,   &&lbl_kSendFields,   &&lbl_kSendValue,
      &&lbl_kDrop,         &&lbl_kAddImm,
      &&lbl_kSubImm,       &&lbl_kEqImm,        &&lbl_kNeImm,
      &&lbl_kLtImm,        &&lbl_kLeImm,        &&lbl_kGtImm,
      &&lbl_kGeImm,        &&lbl_kJumpUnlessEq, &&lbl_kJumpUnlessNe,
      &&lbl_kJumpUnlessLt, &&lbl_kJumpUnlessLe, &&lbl_kJumpUnlessGt,
      &&lbl_kJumpUnlessGe, &&lbl_kJumpUnlessEqImm, &&lbl_kJumpUnlessNeImm,
      &&lbl_kJumpUnlessLtImm, &&lbl_kJumpUnlessLeImm, &&lbl_kJumpUnlessGtImm,
      &&lbl_kJumpUnlessGeImm,
  };
  if (table_out != nullptr) {
    *table_out = kLabels;
    return;
  }

  JitEngine& e = *self;
  EnvApi& env = e.env_;
  // This call's handlers sit above `try_base` on the engine's try stack; the
  // guard keeps that true even when an exception unwinds through this frame.
  struct TryGuard {
    std::vector<TryFrame>& tries;
    std::size_t try_base;
    ~TryGuard() { tries.resize(try_base); }
  } guard{e.tries_, e.tries_.size()};

  std::int64_t* const r = f.r;
  Value* const v = f.v;
  std::vector<TryFrame>& tries = e.tries_;
  const TInstr* code = block.code.data();
  const TInstr* in = nullptr;
  std::size_t pc = 0;
  auto send = [&](std::int32_t kind, std::int32_t tag, asp::net::Packet p) {
    switch (static_cast<SendKind>(kind)) {
      case SendKind::kOnRemote:
        env.on_remote(static_cast<std::uint32_t>(tag), std::move(p));
        break;
      case SendKind::kOnNeighbor:
        env.on_neighbor(static_cast<std::uint32_t>(tag), std::move(p));
        break;
      case SendKind::kDeliver: env.deliver(std::move(p)); break;
      case SendKind::kDrop: env.drop(); break;
    }
  };

#define D in->o[0]
#define A in->o[1]
#define B in->o[2]
#define BINOP(name, expr)                 \
  lbl_##name : r[D] = (expr);             \
  VM_DISPATCH();
#define BRANCH_UNLESS(name, cond)             \
  lbl_##name : if (!(cond)) pc = static_cast<std::size_t>(D); \
  VM_DISPATCH();

  for (;;) {
    try {
      VM_DISPATCH();
      lbl_kImm: r[D] = in->imm;
      VM_DISPATCH();
      lbl_kConst: unbox(static_cast<Rep>(in->imm), *static_cast<const Value*>(in->k), f, D);
      VM_DISPATCH();
      lbl_kMove: r[D] = r[A];
      VM_DISPATCH();
      lbl_kMove2: {
        const std::int64_t lo = r[A], hi = r[A + 1];
        r[D] = lo;
        r[D + 1] = hi;
      }
      VM_DISPATCH();
      lbl_kMoveBox: v[D] = v[A];
      VM_DISPATCH();
      lbl_kGlobal:
        unbox(static_cast<Rep>(in->imm), e.globals_[static_cast<std::size_t>(A)], f, D);
      VM_DISPATCH();
      lbl_kBox: v[D] = box(static_cast<Rep>(in->imm), f, A);
      VM_DISPATCH();
      lbl_kUnbox: unbox(static_cast<Rep>(in->imm), v[A], f, D);
      VM_DISPATCH();
      lbl_kJump: pc = static_cast<std::size_t>(D);
      VM_DISPATCH();
      lbl_kJumpIfFalse: if (r[A] == 0) pc = static_cast<std::size_t>(D);
      VM_DISPATCH();
      lbl_kJumpIfTrue: if (r[A] != 0) pc = static_cast<std::size_t>(D);
      VM_DISPATCH();
      lbl_kRaise: throw PlanPException{static_cast<const Value*>(in->k)->as_string()};
      lbl_kTryPush: tries.push_back(TryFrame{D});
      VM_DISPATCH();
      lbl_kTryPop: tries.pop_back();
      VM_DISPATCH();
      lbl_kReturn: return;

      BINOP(kAdd, r[A] + r[B])
      BINOP(kSub, r[A] - r[B])
      BINOP(kMul, r[A] * r[B])
      lbl_kDiv: {
        if (r[B] == 0) throw PlanPException{"DivByZero"};
        r[D] = r[A] / r[B];
      }
      VM_DISPATCH();
      lbl_kMod: {
        if (r[B] == 0) throw PlanPException{"DivByZero"};
        r[D] = r[A] % r[B];
      }
      VM_DISPATCH();
      BINOP(kEq, r[A] == r[B])
      BINOP(kNe, r[A] != r[B])
      BINOP(kLt, r[A] < r[B])
      BINOP(kLe, r[A] <= r[B])
      BINOP(kGt, r[A] > r[B])
      BINOP(kGe, r[A] >= r[B])
      BINOP(kNot, r[A] == 0)
      BINOP(kNeg, -r[A])
      BINOP(kEqBox, v[A].equals(v[B]))
      BINOP(kNeBox, !v[A].equals(v[B]))
      lbl_kCmpBox: {
        const int cmp = compare_values(v[A], v[B]);
        r[D] = in->imm == 0   ? cmp < 0
               : in->imm == 1 ? cmp <= 0
               : in->imm == 2 ? cmp > 0
                              : cmp >= 0;
      }
      VM_DISPATCH();
      lbl_kConcat: v[D] = Value::of_string(v[A].as_string() + v[B].as_string());
      VM_DISPATCH();
      lbl_kTuple: {
        const auto& ops = static_cast<const JitSpec*>(in->k)->ops;
        TupleRep t = Value::make_tuple_storage(ops.size());
        for (const Operand& o : ops) t->push_back(box(o.rep, f, o.slot));
        v[D] = Value::of_tuple_rep(std::move(t));
      }
      VM_DISPATCH();
      lbl_kProj:
        unbox(static_cast<Rep>(in->imm), v[A].as_tuple()[static_cast<std::size_t>(B)], f, D);
      VM_DISPATCH();
      lbl_kPrim: static_cast<const Primitive*>(in->k)->typed(env, f, in->o);
      VM_DISPATCH();
      lbl_kPrimBoxed: {
        const JitSpec& s = *static_cast<const JitSpec*>(in->k);
        std::vector<Value>& args = e.args_;
        args.clear();
        for (const Operand& o : s.ops) args.push_back(box(o.rep, f, o.slot));
        Value out = s.prim->fn(env, args);
        args.clear();
        unbox(static_cast<Rep>(in->imm), out, f, D);
      }
      VM_DISPATCH();
      lbl_kCallFun: {
        const JitSpec& s = *static_cast<const JitSpec*>(in->k);
        const JitBlock& fb = e.code_->functions[static_cast<std::size_t>(s.fun)];
        // The callee's window starts just past this block's own slots.
        TypedFrame callee{r + block.regs, v + block.boxes};
        for (std::size_t i = 0; i < s.ops.size(); ++i) {
          copy_slot(s.ops[i].rep, f, s.ops[i].slot, callee, fb.params[i].slot);
        }
        run_block(self, fb, callee);
        copy_slot(fb.result.rep, callee, fb.result.slot, f, D);
      }
      VM_DISPATCH();
      lbl_kSendPacket: send(A, B, reemit_packet(*e.packet_, *e.plan_));
      VM_DISPATCH();
      lbl_kSendFields: {
        const auto& ops = static_cast<const JitSpec*>(in->k)->ops;
        PacketBuilder pb(load_header<asp::net::IpHeader>(r + ops[0].slot));
        for (std::size_t i = 1; i < ops.size(); ++i) {
          const std::int32_t o = ops[i].slot;
          switch (ops[i].rep) {
            case Rep::kTcp: pb.tcp(load_header<asp::net::TcpHeader>(r + o)); break;
            case Rep::kUdp: pb.udp(load_header<asp::net::UdpHeader>(r + o)); break;
            case Rep::kChar: pb.put_char(static_cast<char>(r[o])); break;
            case Rep::kBool: pb.put_bool(r[o] != 0); break;
            case Rep::kInt: pb.put_int(r[o]); break;
            case Rep::kBox: pb.put_blob(v[o].as_blob()); break;
            default: throw EvalBug{"send: unsupported packet field"};
          }
        }
        send(A, B, pb.finish());
      }
      VM_DISPATCH();
      lbl_kSendValue: send(A, B, encode_packet(v[in->o[3]], 0));
      VM_DISPATCH();
      lbl_kDrop: env.drop();
      VM_DISPATCH();

      // --- superinstructions --------------------------------------------------
      BINOP(kAddImm, r[A] + in->imm)
      BINOP(kSubImm, r[A] - in->imm)
      BINOP(kEqImm, r[A] == in->imm)
      BINOP(kNeImm, r[A] != in->imm)
      BINOP(kLtImm, r[A] < in->imm)
      BINOP(kLeImm, r[A] <= in->imm)
      BINOP(kGtImm, r[A] > in->imm)
      BINOP(kGeImm, r[A] >= in->imm)
      BRANCH_UNLESS(kJumpUnlessEq, r[A] == r[B])
      BRANCH_UNLESS(kJumpUnlessNe, r[A] != r[B])
      BRANCH_UNLESS(kJumpUnlessLt, r[A] < r[B])
      BRANCH_UNLESS(kJumpUnlessLe, r[A] <= r[B])
      BRANCH_UNLESS(kJumpUnlessGt, r[A] > r[B])
      BRANCH_UNLESS(kJumpUnlessGe, r[A] >= r[B])
      BRANCH_UNLESS(kJumpUnlessEqImm, r[A] == in->imm)
      BRANCH_UNLESS(kJumpUnlessNeImm, r[A] != in->imm)
      BRANCH_UNLESS(kJumpUnlessLtImm, r[A] < in->imm)
      BRANCH_UNLESS(kJumpUnlessLeImm, r[A] <= in->imm)
      BRANCH_UNLESS(kJumpUnlessGtImm, r[A] > in->imm)
      BRANCH_UNLESS(kJumpUnlessGeImm, r[A] >= in->imm)
    } catch (const PlanPException&) {
      if (tries.size() == guard.try_base) throw;
      pc = static_cast<std::size_t>(tries.back().handler_pc);
      tries.pop_back();
    }
  }
#undef D
#undef A
#undef B
#undef BINOP
#undef BRANCH_UNLESS
}

#undef VM_DISPATCH

}  // namespace asp::planp
