// Checked AST -> JIT templates: the code generator of the run-time
// specializer (jit.hpp).
//
// One pass over each expression writes templates directly: constants go into
// the JitProgram's pool and are patched in as pointers, primitives as entry
// points, channel names as the tags the type checker interned. A peephole
// then fuses common sequences into superinstructions, and every template
// gets its handler address.
#include <chrono>
#include <initializer_list>
#include <optional>

#include "obs/metrics.hpp"
#include "planp/jit.hpp"

namespace asp::planp {

namespace {

std::int32_t binop_template(const std::string& op) {
  if (op == "+") return jop::kAdd;
  if (op == "-") return jop::kSub;
  if (op == "*") return jop::kMul;
  if (op == "/") return jop::kDiv;
  if (op == "%") return jop::kMod;
  if (op == "=") return jop::kEq;
  if (op == "<>") return jop::kNe;
  if (op == "<") return jop::kLt;
  if (op == "<=") return jop::kLe;
  if (op == ">") return jop::kGt;
  if (op == ">=") return jop::kGe;
  return jop::kConcat;  // "^"
}

bool is_branch(std::int32_t op) {
  return op == jop::kJump || op == jop::kJumpIfFalse || op == jop::kJumpIfTrue ||
         op == jop::kTryPush;
}

/// The value of a literal, or of a tuple built only of literals (which the
/// emitter folds into one constant); nullopt for anything else.
std::optional<Value> literal(const Expr& e) {
  using K = Expr::Kind;
  switch (e.kind) {
    case K::kIntLit: return Value::of_int(e.int_val);
    case K::kBoolLit: return Value::of_bool(e.bool_val);
    case K::kCharLit: return Value::of_char(e.char_val);
    case K::kStringLit: return Value::of_string(e.str_val);
    case K::kHostLit: return Value::of_host(e.host_val);
    case K::kUnitLit: return Value::unit();
    case K::kTuple: {
      std::vector<Value> elems;
      for (const auto& a : e.args) {
        std::optional<Value> v = literal(*a);
        if (!v) return std::nullopt;
        elems.push_back(std::move(*v));
      }
      // The shapes kMakeTuple builds: pairs via of_pair, others pooled.
      if (elems.size() == 2) return Value::of_pair(std::move(elems[0]), std::move(elems[1]));
      return Value::of_tuple(std::move(elems));
    }
    default: return std::nullopt;
  }
}

/// Writes the unfused templates of one expression at a time, tracking the
/// operand-stack depth for the block's max_stack bound.
class Emitter {
 public:
  explicit Emitter(std::deque<Value>& consts) : consts_(consts) {}

  JitBlock block(const Expr& body, int frame_slots) {
    code_.clear();
    depth_ = 0;
    max_depth_ = 0;
    emit_expr(body);
    emit(-1, {.op = jop::kReturn});
    JitBlock b;
    b.code = std::move(code_);
    b.frame_slots = frame_slots;
    b.max_stack = max_depth_ + 4;
    return b;
  }

 private:
  int emit(int stack_delta, SInstr s) {
    code_.push_back(s);
    depth_ += stack_delta;
    max_depth_ = std::max(max_depth_, depth_);
    return static_cast<int>(code_.size()) - 1;
  }

  const Value* constant(Value v) {
    // Every engine instance of the program reads the pool at once.
    freeze(v);
    // Scalars are deduplicated; aggregates appended as-is.
    for (const Value& c : consts_) {
      const auto& rep = c.rep();
      if (rep.index() != v.rep().index()) continue;
      if (std::holds_alternative<TupleRep>(rep) || std::holds_alternative<TableRef>(rep) ||
          std::holds_alternative<Blob>(rep)) {
        continue;
      }
      if (c.equals(v)) return &c;
    }
    consts_.push_back(std::move(v));
    return &consts_.back();
  }

  void push_const(Value v) { emit(+1, {.op = jop::kConst, .k = constant(std::move(v))}); }

  void patch(int at, std::int32_t target) { code_[static_cast<std::size_t>(at)].a = target; }
  std::int32_t here() const { return static_cast<std::int32_t>(code_.size()); }

  void emit_expr(const Expr& e) {
    using K = Expr::Kind;
    switch (e.kind) {
      case K::kIntLit:
      case K::kBoolLit:
      case K::kCharLit:
      case K::kStringLit:
      case K::kHostLit:
      case K::kUnitLit:
        push_const(*literal(e));
        return;

      case K::kVar:
        if (is_local_var(e.var_slot)) {
          emit(+1, {.op = jop::kLoadLocal, .a = e.var_slot});
        } else {
          emit(+1, {.op = jop::kLoadGlobal, .a = global_index(e.var_slot)});
        }
        return;

      case K::kLet:
        emit_expr(*e.args[0]);
        emit(-1, {.op = jop::kStoreLocal, .a = e.var_slot});
        emit_expr(*e.args[1]);
        return;

      case K::kIf: {
        emit_expr(*e.args[0]);
        int jf = emit(-1, {.op = jop::kJumpIfFalse});
        emit_expr(*e.args[1]);
        int depth_after_then = depth_;
        int jend = emit(0, {.op = jop::kJump});
        patch(jf, here());
        depth_ = depth_after_then - 1;  // else starts from pre-then depth
        emit_expr(*e.args[2]);
        patch(jend, here());
        return;
      }

      case K::kSeq:
        for (std::size_t i = 0; i + 1 < e.args.size(); ++i) {
          emit_expr(*e.args[i]);
          emit(-1, {.op = jop::kPop});
        }
        emit_expr(*e.args.back());
        return;

      case K::kTuple: {
        if (std::optional<Value> v = literal(e)) {
          push_const(std::move(*v));
          return;
        }
        for (const auto& a : e.args) emit_expr(*a);
        const auto n = static_cast<std::int32_t>(e.args.size());
        emit(1 - n, {.op = jop::kMakeTuple, .a = n});
        return;
      }

      case K::kProj:
        emit_expr(*e.args[0]);
        emit(0, {.op = jop::kProj, .a = e.proj_index - 1});
        return;

      case K::kCall: {
        for (const auto& a : e.args) emit_expr(*a);
        const auto nargs = static_cast<std::int32_t>(e.args.size());
        if (is_primitive_call(e.call_target)) {
          emit(1 - nargs, {.op = jop::kCallPrim,
                           .b = nargs,
                           .prim = &Primitives::instance().at(e.call_target)});
        } else {
          emit(1 - nargs,
               {.op = jop::kCallFun, .a = user_fun_index(e.call_target), .b = nargs});
        }
        return;
      }

      case K::kBinOp:
        emit_expr(*e.args[0]);
        emit_expr(*e.args[1]);
        emit(-1, {.op = binop_template(e.name)});
        return;

      case K::kUnOp:
        emit_expr(*e.args[0]);
        emit(0, {.op = e.name == "not" ? jop::kNot : jop::kNeg});
        return;

      case K::kAnd:
      case K::kOr: {
        // a and b  ==>  if !a then false else b  (dually for or)
        const bool is_and = e.kind == K::kAnd;
        emit_expr(*e.args[0]);
        int jshort = emit(-1, {.op = is_and ? jop::kJumpIfFalse : jop::kJumpIfTrue});
        emit_expr(*e.args[1]);
        int jend = emit(0, {.op = jop::kJump});
        patch(jshort, here());
        --depth_;
        push_const(Value::of_bool(!is_and));
        patch(jend, here());
        return;
      }

      case K::kRaise:
        emit(+1, {.op = jop::kRaise, .k = constant(Value::of_string(e.str_val))});
        return;

      case K::kTry: {
        int tp = emit(0, {.op = jop::kTryPush});
        emit_expr(*e.args[0]);
        emit(0, {.op = jop::kTryPop});
        int jend = emit(0, {.op = jop::kJump});
        patch(tp, here());
        --depth_;  // handler starts from the depth at kTryPush
        emit_expr(*e.args[1]);
        patch(jend, here());
        return;
      }

      case K::kSend: {
        if (e.args.empty()) {
          push_const(Value::unit());  // drop(): dummy
        } else {
          emit_expr(*e.args[0]);
        }
        // Deliver/drop carry the empty name, tag 0.
        emit(-1, {.op = jop::kSend,
                  .a = static_cast<std::int32_t>(e.send_kind),
                  .b = static_cast<std::int32_t>(e.chan_tag),
                  .k = constant(Value::of_string(e.name))});
        push_const(Value::unit());
        return;
      }
    }
    throw EvalBug{"compile: unhandled expression kind"};
  }

  std::deque<Value>& consts_;
  std::vector<SInstr> code_;
  int depth_ = 0;
  int max_depth_ = 0;
};

/// The peephole: rewrites common sequences into superinstructions. A
/// sequence never spans a jump target (nothing may jump into the middle of a
/// fused template); jump targets are renumbered to the fused stream.
void fuse(std::vector<SInstr>& code) {
  std::vector<bool> is_target(code.size() + 1);
  for (const SInstr& s : code) {
    if (is_branch(s.op)) is_target[static_cast<std::size_t>(s.a)] = true;
  }
  // True when code[i..] starts with `ops` and no jump lands inside them.
  auto starts = [&](std::size_t i, std::initializer_list<std::int32_t> ops) {
    if (i + ops.size() > code.size()) return false;
    std::size_t j = i;
    for (std::int32_t op : ops) {
      if (code[j].op != op || (j > i && is_target[j])) return false;
      ++j;
    }
    return true;
  };

  std::vector<SInstr> out;
  out.reserve(code.size());
  std::vector<std::int32_t> new_pc(code.size() + 1, 0);
  std::size_t i = 0;
  while (i < code.size()) {
    new_pc[i] = static_cast<std::int32_t>(out.size());
    const SInstr& in = code[i];
    SInstr s = in;
    std::size_t n = 1;  // templates this step consumes
    bool keep = true;
    if (starts(i, {jop::kLoadLocal, jop::kProj, jop::kStoreLocal})) {
      // `val x = #f p`: field index in the low 16 bits, destination slot in
      // the high bits
      s = {.op = jop::kMoveField, .a = in.a,
           .b = (code[i + 1].a & 0xFFFF) | (code[i + 2].a << 16)};
      n = 3;
    } else if (starts(i, {jop::kLoadLocal, jop::kProj})) {
      s = {.op = jop::kProjLocal, .a = in.a, .b = code[i + 1].a};
      n = 2;
    } else if (starts(i, {jop::kLoadLocal, jop::kCallPrim}) && code[i + 1].b == 1) {
      s = {.op = jop::kCallPrim1L, .a = in.a, .prim = code[i + 1].prim};
      n = 2;
    } else if (starts(i, {jop::kConst, jop::kEq})) {
      s = {.op = jop::kEqConst, .k = in.k};
      n = 2;
    } else if (starts(i, {jop::kLoadLocal, jop::kReturn})) {
      s = {.op = jop::kReturnLocal, .a = in.a};
      n = 2;
    } else if (starts(i, {jop::kConst, jop::kSend})) {
      // The sent value is patched into the template: the common `drop()` /
      // `deliver(v)` shapes never touch the stack at all.
      s = {.op = jop::kSendConst, .a = code[i + 1].a, .b = code[i + 1].b, .k = in.k};
      n = 2;
    } else if (starts(i, {jop::kConst, jop::kPop})) {
      // A dead sequence value, e.g. the unit a send pushes when `;`
      // discards it: nothing.
      keep = false;
      n = 2;
    } else if (starts(i, {jop::kLoadLocal, jop::kConst, jop::kAdd})) {
      s = {.op = jop::kAddConstLocal, .a = in.a, .k = code[i + 1].k};
      n = 3;
    } else if (starts(i, {jop::kLoadLocal, jop::kMakeTuple, jop::kReturn}) &&
               code[i + 1].a == 2) {
      // The dominant channel epilogue `(ps', ss)` becomes one template.
      s = {.op = jop::kReturnPairLocal, .a = in.a};
      n = 3;
    }
    for (std::size_t j = 1; j < n; ++j) new_pc[i + j] = new_pc[i];
    if (keep) out.push_back(s);
    i += n;
  }
  new_pc[code.size()] = static_cast<std::int32_t>(out.size());
  for (SInstr& s : out) {
    if (is_branch(s.op)) s.a = new_pc[static_cast<std::size_t>(s.a)];
  }
  code = std::move(out);
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

JitProgram::JitProgram(const CheckedProgram& checked, bool fuse_templates)
    : prog(checked) {
  auto t0 = std::chrono::steady_clock::now();
  Emitter emitter(consts);
  auto lower = [&](const Expr& body, int frame_slots) {
    JitBlock b = emitter.block(body, frame_slots);
    stats.input_instrs += b.code.size();
    if (fuse_templates) fuse(b.code);
    stats.output_instrs += b.code.size();
    return b;
  };
  for (const ValDef* v : prog.globals) global_inits.push_back(lower(*v->init, 8));
  for (const FunDef* f : prog.functions) functions.push_back(lower(*f->body, f->frame_slots));
  for (const ChannelDef* c : prog.channels) {
    channel_bodies.push_back(lower(*c->body, c->frame_slots));
    channel_inits.push_back(c->init_state != nullptr ? lower(*c->init_state, 8)
                                                     : JitBlock{});
  }

  // Direct threading: resolve each template's opcode to its handler address
  // once, here, so run_block dispatches with a single indirect goto instead
  // of a bounds-checked switch.
  const void* const* table = nullptr;
  JitEngine::run_block(nullptr, JitBlock{}, nullptr, &table);
  for (auto* blocks : {&functions, &channel_bodies, &channel_inits, &global_inits}) {
    for (JitBlock& blk : *blocks) {
      for (SInstr& s : blk.code) s.handler = table[static_cast<std::size_t>(s.op)];
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  stats.generation_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  stats.code_bytes = stats.output_instrs * sizeof(SInstr);
  stats.source_lines = prog.program.source_lines;

  // Channel bodies keep the packet in local slot 2.
  packet_used.reserve(channel_bodies.size());
  for (const JitBlock& b : channel_bodies) packet_used.push_back(block_reads_local(b, 2));

  // Figure 3 in registry form: code generation cost per compilation.
  obs::MetricsRegistry& reg = obs::registry();
  reg.histogram("planp/jit/codegen_us").observe(stats.generation_ms * 1000.0);
  reg.counter("planp/jit/compiles").inc();
  reg.counter("planp/jit/input_instrs").inc(stats.input_instrs);
  reg.counter("planp/jit/output_instrs").inc(stats.output_instrs);
}

}  // namespace asp::planp
