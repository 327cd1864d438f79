// Checked AST -> typed JIT templates: the code generator of the run-time
// specializer (jit.hpp).
//
// One pass over each expression writes register templates directly. Every
// expression's type is known, so its value gets a typed slot: a register
// (two for a header) or a boxed Value slot. Variables and the packet fields
// a channel reads own their slots; temporaries are allocated and released in
// stack order. Constants go into the JitProgram's pool, calls of pure
// primitives on literals are folded into it, primitives are patched in as
// typed entry points where they have one, channel names as the tags the type
// checker interned. With fusion on, the emitter picks superinstructions as
// it goes (compare-and-branch, operations on an immediate); each counts as
// the templates it replaces in CodegenStats::input_instrs.
#include <chrono>
#include <optional>

#include "obs/metrics.hpp"
#include "planp/jit.hpp"

namespace asp::planp {

namespace {

std::int32_t reg_binop(const std::string& op) {
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
  return jop::kGe;  // ">="
}

bool is_comparison(std::int32_t op) { return op >= jop::kEq && op <= jop::kGe; }

/// The template of `op` on an immediate right operand, or -1 if none.
std::int32_t imm_form(std::int32_t op) {
  if (op == jop::kAdd) return jop::kAddImm;
  if (op == jop::kSub) return jop::kSubImm;
  if (is_comparison(op)) return jop::kEqImm + (op - jop::kEq);
  return -1;
}

/// The type a binary operator works on: its left operand's, unless that one
/// is `raise` (bottom), which takes the right one's.
const TypePtr& operand_type(const Expr& e) {
  const TypePtr& t = e.args[0]->type;
  return t->is(Type::Kind::kBottom) ? e.args[1]->type : t;
}

/// True for a primitive's parameter or result type that is a type variable.
bool generic(const TypePtr& t) {
  if (t->is(Type::Kind::kVar)) return true;
  for (const TypePtr& a : t->args()) {
    if (generic(a)) return true;
  }
  return false;
}

/// Where an expression's value must go.
struct Dest {
  enum class Kind { kAny, kDiscard, kAt, kPair } kind = Kind::kAny;
  Operand at{};      // kAt; kPair: where the pair's first element goes
  Operand second{};  // kPair: where its second element goes
  static Dest any() { return {}; }
  static Dest discard() { return {.kind = Kind::kDiscard}; }
  static Dest to(Operand o) { return {.kind = Kind::kAt, .at = o}; }
  /// A pair delivered as its two elements: a channel body's new states.
  static Dest pair(Operand a, Operand b) { return {.kind = Kind::kPair, .at = a, .second = b}; }
};

/// Lowers one block at a time, tracking the frame slots it needs.
class Emitter {
 public:
  Emitter(JitProgram& out, bool fuse) : out_(out), fuse_(fuse) {}

  /// A function body: parameters first, then the result slot.
  JitBlock function(const FunDef& f) {
    begin();
    for (std::size_t i = 0; i < f.params.size(); ++i) {
      block_.params.push_back(bind_param(static_cast<int>(i), f.params[i].second));
    }
    block_.result = alloc(rep_of(f.ret));
    return finish(*f.body, Dest::to(block_.result));
  }

  /// A channel body: ps, ss and the packet's fields own the first slots.
  /// The new states get slots of their own, since a body may still read ps
  /// after it has computed the new ps (`(ss, ps)`).
  JitBlock channel(const ChannelDef& c, const DecodePlan& plan) {
    begin();
    block_.params.push_back(bind_param(0, c.ps_type));
    block_.params.push_back(bind_param(1, c.ss_type));
    in_channel_ = true;
    packet_type_ = c.packet_type.get();
    reserve_packet_fields(plan);
    block_.result = alloc(rep_of(c.ps_type));
    block_.ss_result = alloc(rep_of(c.ss_type));
    JitBlock b = finish(*c.body, Dest::pair(block_.result, block_.ss_result));
    in_channel_ = false;
    // Only the fields the body reads are loaded when it runs.
    std::vector<PacketField> read;
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (field_read_[i]) read.push_back(fields_[i]);
    }
    b.fields = std::move(read);
    b.packet = packet_read_ ? packet_ : Operand{};
    return b;
  }

  /// A parameterless expression (global or channel initializer).
  JitBlock expr(const Expr& e) {
    begin();
    block_.result = alloc(rep_of(e.type));
    return finish(e, Dest::to(block_.result));
  }

 private:
  void begin() {
    block_ = JitBlock{};
    vars_.clear();
    next_reg_ = next_box_ = 0;
    callee_regs_ = callee_boxes_ = 0;
    packet_read_ = false;
  }

  /// Lowers `body` into the block's result slots and closes the block.
  JitBlock finish(const Expr& body, Dest result) {
    lower(body, result);
    emit({.op = jop::kReturn}, 1);
    block_.frame_regs = block_.regs + callee_regs_;
    block_.frame_boxes = block_.boxes + callee_boxes_;
    return std::move(block_);
  }

  // --- slots -------------------------------------------------------------------
  struct Mark {
    std::int32_t regs, boxes;
  };
  Mark mark() const { return {next_reg_, next_box_}; }
  void release(Mark m) {
    next_reg_ = m.regs;
    next_box_ = m.boxes;
  }
  Operand alloc(Rep rep) {
    Operand o{rep, 0};
    if (int w = reg_width(rep); w > 0) {
      o.slot = next_reg_;
      next_reg_ += w;
      block_.regs = std::max(block_.regs, next_reg_);
    } else {
      o.slot = next_box_++;
      block_.boxes = std::max(block_.boxes, next_box_);
    }
    return o;
  }
  /// The slot of the variable the type checker numbered `var_slot`.
  Operand& var(int var_slot) {
    const auto i = static_cast<std::size_t>(var_slot);
    if (i >= vars_.size()) vars_.resize(i + 1);
    return vars_[i];
  }
  Operand bind_param(int var_slot, const TypePtr& type) {
    return var(var_slot) = alloc(rep_of(type));
  }

  // --- packet fields -------------------------------------------------------------
  /// Channel bodies keep their packet in local slot 2. Its fields get slots
  /// of their own up front; the body marks the ones it reads.
  void reserve_packet_fields(const DecodePlan& plan) {
    fields_.clear();
    const auto& parts = packet_type_->args();
    std::uint32_t off = 0;
    std::size_t payload = 0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      PacketField f;
      f.index = static_cast<std::int32_t>(i);
      f.at = alloc(rep_of(parts[i]));
      const bool header = i == 0 || (i == 1 && plan.transport != DecodePlan::Transport::kAny);
      if (!header && payload < plan.fields.size()) {
        f.op = plan.fields[payload++];
        f.offset = off;
        off += f.op == DecodePlan::FieldOp::kInt ? 4 : 1;
      }
      fields_.push_back(f);
    }
    field_read_.assign(fields_.size(), false);
    packet_ = alloc(Rep::kBox);
  }
  bool is_packet(const Expr& e) const {
    return in_channel_ && e.kind == Expr::Kind::kVar && e.var_slot == 2;
  }
  /// The slot of a local variable or of a packet field `e` names, which
  /// holds its value for the rest of the block; nullopt for anything else.
  std::optional<Operand> alias(const Expr& e) {
    if (e.kind == Expr::Kind::kProj && is_packet(*e.args[0])) {
      const auto field = static_cast<std::size_t>(e.proj_index - 1);
      field_read_[field] = true;
      return fields_[field].at;
    }
    if (e.kind != Expr::Kind::kVar || !is_local_var(e.var_slot)) return std::nullopt;
    if (is_packet(e)) {
      packet_read_ = true;
      return packet_;
    }
    return var(e.var_slot);
  }

  // --- emission ------------------------------------------------------------------
  /// Appends `s`, which stands for `unfused` templates of the plain lowering.
  int emit(TInstr s, std::size_t unfused = 1) {
    block_.code.push_back(s);
    out_.stats.input_instrs += unfused;
    return static_cast<int>(block_.code.size()) - 1;
  }
  void patch(int at, std::int32_t target) {
    block_.code[static_cast<std::size_t>(at)].o[0] = target;
  }
  std::int32_t here() const { return static_cast<std::int32_t>(block_.code.size()); }

  const Value* constant(Value v) {
    // Scalars are deduplicated; aggregates appended as-is.
    for (const Value& c : out_.consts) {
      const auto& rep = c.rep();
      if (rep.index() != v.rep().index()) continue;
      if (std::holds_alternative<TupleRep>(rep) || std::holds_alternative<TableRef>(rep) ||
          std::holds_alternative<Blob>(rep)) {
        continue;
      }
      if (c.equals(v)) return &c;
    }
    out_.consts.push_back(std::move(v));
    return &out_.consts.back();
  }
  const JitSpec* spec(JitSpec s) {
    out_.specs.push_back(std::move(s));
    return &out_.specs.back();
  }

  /// The value of a literal, of a tuple of literals, of a top-level val
  /// initialized with one, or of a pure primitive called on literals; nullopt
  /// for anything else. Such expressions lower to one constant.
  std::optional<Value> literal(const Expr& e) {
    using K = Expr::Kind;
    switch (e.kind) {
      case K::kIntLit: return Value::of_int(e.int_val);
      case K::kBoolLit: return Value::of_bool(e.bool_val);
      case K::kCharLit: return Value::of_char(e.char_val);
      case K::kStringLit: return Value::of_string(e.str_val);
      case K::kHostLit: return Value::of_host(e.host_val);
      case K::kUnitLit: return Value::unit();
      case K::kVar:
        if (is_local_var(e.var_slot)) return std::nullopt;
        return literal(*out_.prog.globals[static_cast<std::size_t>(
                                              global_index(e.var_slot))]->init);
      case K::kTuple: {
        std::vector<Value> elems;
        for (const auto& a : e.args) {
          std::optional<Value> v = literal(*a);
          if (!v) return std::nullopt;
          elems.push_back(std::move(*v));
        }
        return Value::of_tuple(std::move(elems));
      }
      case K::kCall: {
        if (!is_primitive_call(e.call_target)) return std::nullopt;
        const Primitive& prim = Primitives::instance().at(e.call_target);
        if (!prim.pure) return std::nullopt;
        std::vector<Value> args;
        for (const auto& a : e.args) {
          std::optional<Value> v = literal(*a);
          if (!v) return std::nullopt;
          args.push_back(std::move(*v));
        }
        return prim.fn(fold_env_, args);
      }
      default: return std::nullopt;
    }
  }

  /// Puts the constant `v` of representation `rep` at `d`.
  void load_constant(Value v, Operand d) {
    if (reg_width(d.rep) == 1) {
      std::int64_t r = 0;
      unbox(d.rep, v, TypedFrame{&r, nullptr}, 0);
      emit({.op = jop::kImm, .o = {d.slot}, .imm = r});
    } else {
      emit({.op = jop::kConst, .o = {d.slot}, .imm = static_cast<std::int64_t>(d.rep),
            .k = constant(std::move(v))});
    }
  }

  /// Copies `from` to `to` (same representation).
  void move(Operand from, Operand to) {
    if (from.slot == to.slot) return;
    const int w = reg_width(from.rep);
    const std::int32_t op = w == 0 ? jop::kMoveBox : w == 2 ? jop::kMove2 : jop::kMove;
    emit({.op = op, .o = {to.slot, from.slot}});
  }

  /// The slot a result of `rep` goes to under `d` (a fresh temporary for kAny
  /// and kDiscard: a template needs somewhere to write).
  Operand target(Dest d, Rep rep) { return d.kind == Dest::Kind::kAt ? d.at : alloc(rep); }

  /// Where an already computed value must end up under `d`.
  Operand place(Operand v, Dest d) {
    if (d.kind == Dest::Kind::kAt) {
      move(v, d.at);
      return d.at;
    }
    return v;
  }

  /// The destination an expression hands on to the subexpression that gives
  /// its value: `d` itself, or for kAny a slot allocated here, outside the
  /// scope of the names the expression binds.
  Dest hand_on(Dest d, Rep rep) { return d.kind == Dest::Kind::kAny ? Dest::to(alloc(rep)) : d; }

  /// Lowers the pair `e` into the two slots of `d`. A tuple expression writes
  /// its elements there; any other (a variable, a call, a projection) is
  /// built and projected twice.
  Operand lower_pair(const Expr& e, Dest d) {
    if (e.kind == Expr::Kind::kTuple) {
      lower(*e.args[0], Dest::to(d.at));
      lower(*e.args[1], Dest::to(d.second));
      return d.at;
    }
    Mark m = mark();
    const Operand t = lower(e, Dest::any());
    const Operand to[2] = {d.at, d.second};
    for (std::int32_t i = 0; i < 2; ++i) {
      emit({.op = jop::kProj, .o = {to[i].slot, t.slot, i},
            .imm = static_cast<std::int64_t>(to[i].rep)});
    }
    release(m);
    return d.at;
  }

  // --- expressions ---------------------------------------------------------------
  Operand lower(const Expr& e, Dest d) {
    using K = Expr::Kind;
    const Rep rep = rep_of(e.type);
    // If, let, sequences and try hand a pair destination on (raise ignores
    // it); every other expression delivers it here.
    if (d.kind == Dest::Kind::kPair && e.kind != K::kIf && e.kind != K::kLet &&
        e.kind != K::kSeq && e.kind != K::kTry && e.kind != K::kRaise) {
      return lower_pair(e, d);
    }
    if (e.kind != K::kVar || !is_local_var(e.var_slot)) {
      if (std::optional<Value> v = literal(e)) {
        if (d.kind == Dest::Kind::kDiscard) return {};
        Operand t = target(d, rep);
        load_constant(std::move(*v), t);
        return t;
      }
    }
    switch (e.kind) {
      case K::kIntLit:
      case K::kBoolLit:
      case K::kCharLit:
      case K::kStringLit:
      case K::kHostLit:
      case K::kUnitLit:
        break;  // literal() covered them

      case K::kVar: {
        if (d.kind == Dest::Kind::kDiscard) return {};
        if (std::optional<Operand> v = alias(e)) return place(*v, d);
        Operand t = target(d, rep);
        emit({.op = jop::kGlobal, .o = {t.slot, global_index(e.var_slot)},
              .imm = static_cast<std::int64_t>(rep)});
        return t;
      }

      case K::kLet: {
        Dest inner = hand_on(d, rep);
        Mark m = mark();
        // Bound to a variable or a packet field, which outlives the let, the
        // new name shares its slot (values are immutable). The name is bound
        // after its initializer, whose own lets may reuse its var_slot.
        std::optional<Operand> bound = alias(*e.args[0]);
        if (!bound) {
          bound = alloc(rep_of(e.decl_type));
          lower(*e.args[0], Dest::to(*bound));
        }
        var(e.var_slot) = *bound;
        lower(*e.args[1], inner);
        release(m);
        return inner.at;
      }

      case K::kIf: {
        Dest inner = hand_on(d, rep);
        std::vector<int> to_else = branch_unless(*e.args[0]);
        lower(*e.args[1], inner);
        int jend = emit({.op = jop::kJump});
        for (int j : to_else) patch(j, here());
        lower(*e.args[2], inner);
        patch(jend, here());
        return inner.at;
      }

      case K::kSeq:
        for (std::size_t i = 0; i + 1 < e.args.size(); ++i) {
          Mark m = mark();
          lower(*e.args[i], Dest::discard());
          release(m);
        }
        return lower(*e.args.back(), d);

      case K::kTuple: {
        Operand t = target(d, Rep::kBox);
        Mark m = mark();
        JitSpec s;
        for (const auto& a : e.args) s.ops.push_back(lower(*a, Dest::any()));
        emit({.op = jop::kTuple, .o = {t.slot}, .k = spec(std::move(s))});
        release(m);
        return t;
      }

      case K::kProj: {
        if (d.kind == Dest::Kind::kDiscard) return {};
        // A packet field is read in place: loaded by offset when the run starts.
        if (std::optional<Operand> f = alias(e)) return place(*f, d);
        const auto field = static_cast<std::size_t>(e.proj_index - 1);
        Operand t = target(d, rep);
        Mark m = mark();
        Operand tuple = lower(*e.args[0], Dest::any());
        emit({.op = jop::kProj,
              .o = {t.slot, tuple.slot, static_cast<std::int32_t>(field)},
              .imm = static_cast<std::int64_t>(rep)});
        release(m);
        return t;
      }

      case K::kCall: return lower_call(e, d, rep);

      case K::kBinOp: return lower_binop(e, d);

      case K::kUnOp: {
        Operand t = target(d, rep);
        Mark m = mark();
        Operand a = lower(*e.args[0], Dest::any());
        emit({.op = e.name == "not" ? jop::kNot : jop::kNeg, .o = {t.slot, a.slot}});
        release(m);
        return t;
      }

      case K::kAnd:
      case K::kOr: {
        // a and b  ==>  if a then b else false  (dually for or)
        Operand t = target(d, Rep::kBool);
        std::vector<int> to_short;
        if (e.kind == K::kAnd) {
          to_short = branch_unless(*e.args[0]);
        } else {
          Mark m = mark();
          Operand a = lower(*e.args[0], Dest::any());
          to_short.push_back(emit({.op = jop::kJumpIfTrue, .o = {0, a.slot}}));
          release(m);
        }
        lower(*e.args[1], Dest::to(t));
        int jend = emit({.op = jop::kJump});
        for (int j : to_short) patch(j, here());
        emit({.op = jop::kImm, .o = {t.slot}, .imm = e.kind == K::kAnd ? 0 : 1});
        patch(jend, here());
        return t;
      }

      case K::kRaise:
        emit({.op = jop::kRaise, .k = constant(Value::of_string(e.str_val))});
        return d.kind == Dest::Kind::kAny ? alloc(rep) : d.at;

      case K::kTry: {
        Dest inner = hand_on(d, rep);
        int tp = emit({.op = jop::kTryPush});
        lower(*e.args[0], inner);
        emit({.op = jop::kTryPop});
        int jend = emit({.op = jop::kJump});
        patch(tp, here());
        lower(*e.args[1], inner);
        patch(jend, here());
        return inner.at;
      }

      case K::kSend: {
        lower_send(e);
        if (d.kind == Dest::Kind::kDiscard) return {};
        Operand t = target(d, Rep::kUnit);
        emit({.op = jop::kImm, .o = {t.slot}, .imm = 0});
        return t;
      }
    }
    throw EvalBug{"compile: unhandled expression kind"};
  }

  Operand lower_call(const Expr& e, Dest d, Rep rep) {
    Operand t = target(d, rep);
    Mark m = mark();
    std::vector<Operand> args;
    for (const auto& a : e.args) args.push_back(lower(*a, Dest::any()));
    if (!is_primitive_call(e.call_target)) {
      const auto fun = user_fun_index(e.call_target);
      const JitBlock& callee = out_.functions[static_cast<std::size_t>(fun)];
      callee_regs_ = std::max(callee_regs_, callee.frame_regs);
      callee_boxes_ = std::max(callee_boxes_, callee.frame_boxes);
      emit({.op = jop::kCallFun, .o = {t.slot}, .imm = static_cast<std::int64_t>(rep),
            .k = spec({.ops = std::move(args), .fun = fun})});
    } else {
      const Primitive& prim = Primitives::instance().at(e.call_target);
      if (prim.typed != nullptr && args.size() <= 3) {
        // A polymorphic primitive takes and returns its type-variable
        // operands boxed.
        TInstr s{.op = jop::kPrim, .o = {t.slot}, .k = &prim};
        for (std::size_t i = 0; i < args.size(); ++i) {
          s.o[i + 1] = (generic(prim.params[i]) ? boxed(args[i]) : args[i]).slot;
        }
        const bool unbox_result = generic(prim.ret) && rep != Rep::kBox;
        if (unbox_result) s.o[0] = alloc(Rep::kBox).slot;
        emit(s);
        if (unbox_result) {
          emit({.op = jop::kUnbox, .o = {t.slot, s.o[0]},
                .imm = static_cast<std::int64_t>(rep)});
        }
      } else {
        emit({.op = jop::kPrimBoxed, .o = {t.slot}, .imm = static_cast<std::int64_t>(rep),
              .k = spec({.ops = std::move(args), .prim = &prim})});
      }
    }
    release(m);
    return t;
  }

  Operand lower_binop(const Expr& e, Dest d) {
    const std::string& name = e.name;
    const Rep rep = rep_of(operand_type(e));
    Operand t = target(d, rep_of(e.type));
    Mark m = mark();
    if (name == "^" || reg_width(rep) != 1) {
      // Strings and tuples compare and concatenate boxed.
      Operand a = boxed(lower(*e.args[0], Dest::any()));
      Operand b = boxed(lower(*e.args[1], Dest::any()));
      TInstr s{.o = {t.slot, a.slot, b.slot}};
      if (name == "^") {
        s.op = jop::kConcat;
      } else if (name == "=" || name == "<>") {
        s.op = name == "=" ? jop::kEqBox : jop::kNeBox;
      } else {
        s.op = jop::kCmpBox;
        s.imm = reg_binop(name) - jop::kLt;  // 0 <, 1 <=, 2 >, 3 >=
      }
      emit(s);
    } else {
      const std::int32_t op = reg_binop(name);
      Operand a = lower(*e.args[0], Dest::any());
      if (std::optional<std::int64_t> k = fused_imm(op, *e.args[1])) {
        emit({.op = imm_form(op), .o = {t.slot, a.slot}, .imm = *k}, 2);
      } else {
        Operand b = lower(*e.args[1], Dest::any());
        emit({.op = op, .o = {t.slot, a.slot, b.slot}});
      }
    }
    release(m);
    return t;
  }

  /// With fusion on, the register form of a literal right operand that `op`
  /// has an immediate template for.
  std::optional<std::int64_t> fused_imm(std::int32_t op, const Expr& rhs) {
    if (!fuse_ || imm_form(op) < 0) return std::nullopt;
    std::optional<Value> v = literal(rhs);
    if (!v) return std::nullopt;
    std::int64_t r = 0;
    unbox(rep_of(rhs.type), *v, TypedFrame{&r, nullptr}, 0);
    return r;
  }

  /// `v` as a boxed slot, boxing a register value into a temporary.
  Operand boxed(Operand v) {
    if (v.rep == Rep::kBox) return v;
    Operand t = alloc(Rep::kBox);
    emit({.op = jop::kBox, .o = {t.slot, v.slot}, .imm = static_cast<std::int64_t>(v.rep)});
    return t;
  }

  /// Emits a test of `cond` that jumps when it is false and falls through
  /// when it is true; returns the jumps to patch with the false target.
  std::vector<int> branch_unless(const Expr& cond) {
    if (cond.kind == Expr::Kind::kAnd) {
      std::vector<int> out = branch_unless(*cond.args[0]);
      for (int j : branch_unless(*cond.args[1])) out.push_back(j);
      return out;
    }
    Mark m = mark();
    int j;
    if (fuse_ && cond.kind == Expr::Kind::kBinOp &&
        reg_width(rep_of(operand_type(cond))) == 1 && is_comparison(reg_binop(cond.name))) {
      const std::int32_t cmp = reg_binop(cond.name) - jop::kEq;
      Operand a = lower(*cond.args[0], Dest::any());
      if (std::optional<std::int64_t> k = fused_imm(reg_binop(cond.name), *cond.args[1])) {
        j = emit({.op = jop::kJumpUnlessEqImm + cmp, .o = {0, a.slot}, .imm = *k}, 3);
      } else {
        Operand b = lower(*cond.args[1], Dest::any());
        j = emit({.op = jop::kJumpUnlessEq + cmp, .o = {0, a.slot, b.slot}}, 2);
      }
    } else {
      Operand c = lower(cond, Dest::any());
      j = emit({.op = jop::kJumpIfFalse, .o = {0, c.slot}});
    }
    release(m);
    return {j};
  }

  void lower_send(const Expr& e) {
    if (e.send_kind == SendKind::kDrop) {
      emit({.op = jop::kDrop});
      return;
    }
    // Deliver carries the empty name, tag 0.
    TInstr s{.o = {0, static_cast<std::int32_t>(e.send_kind),
                   static_cast<std::int32_t>(e.chan_tag)}};
    const Expr& pkt = *e.args[0];
    Mark m = mark();
    if (is_packet(pkt)) {
      // The unmodified packet: a copy of the arriving one.
      s.op = jop::kSendPacket;
    } else if (pkt.kind == Expr::Kind::kTuple && !literal(pkt)) {
      // A rewritten packet, built straight from its typed fields.
      JitSpec sp;
      for (const auto& a : pkt.args) sp.ops.push_back(lower(*a, Dest::any()));
      s.op = jop::kSendFields;
      s.k = spec(std::move(sp));
    } else {
      s.op = jop::kSendValue;
      s.o[3] = lower(pkt, Dest::any()).slot;
    }
    emit(s);
    release(m);
  }

  JitProgram& out_;
  const bool fuse_;
  NullEnv fold_env_;  // pure primitives read no environment
  JitBlock block_;
  std::vector<Operand> vars_;  // indexed by Expr::var_slot
  std::int32_t next_reg_ = 0, next_box_ = 0;
  std::int32_t callee_regs_ = 0, callee_boxes_ = 0;
  bool in_channel_ = false;
  const Type* packet_type_ = nullptr;
  std::vector<PacketField> fields_;
  std::vector<bool> field_read_;
  Operand packet_;
  bool packet_read_ = false;
};

}  // namespace

bool is_branch(std::int32_t op) {
  return op == jop::kJump || op == jop::kJumpIfFalse || op == jop::kJumpIfTrue ||
         op == jop::kTryPush || (op >= jop::kJumpUnlessEq && op <= jop::kJumpUnlessGeImm);
}

JitProgram::JitProgram(const CheckedProgram& checked, bool fuse)
    : prog(checked) {
  auto t0 = std::chrono::steady_clock::now();
  Emitter emitter(*this, fuse);
  // Functions first: a function calls only earlier ones, and every caller
  // needs its callees' frame sizes.
  for (const FunDef* f : prog.functions) functions.push_back(emitter.function(*f));
  for (const ValDef* v : prog.globals) global_inits.push_back(emitter.expr(*v->init));
  for (const ChannelDef* c : prog.channels) {
    plans.push_back(compile_decode_plan(c->packet_type));
    channel_bodies.push_back(emitter.channel(*c, plans.back()));
    channel_inits.push_back(c->init_state != nullptr ? emitter.expr(*c->init_state)
                                                     : JitBlock{});
  }

  // Direct threading: resolve each template's opcode to its handler address
  // once, here, so run_block dispatches with a single indirect goto instead
  // of a bounds-checked switch.
  const void* const* table = nullptr;
  JitEngine::run_block(nullptr, JitBlock{}, TypedFrame{nullptr, nullptr}, &table);
  for (auto* blocks : {&functions, &channel_bodies, &channel_inits, &global_inits}) {
    for (JitBlock& blk : *blocks) {
      for (TInstr& s : blk.code) s.handler = table[static_cast<std::size_t>(s.op)];
      stats.output_instrs += blk.code.size();
      frame_regs = std::max(frame_regs, blk.frame_regs);
      frame_boxes = std::max(frame_boxes, blk.frame_boxes);
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  stats.generation_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  stats.code_bytes = stats.output_instrs * sizeof(TInstr);
  stats.source_lines = prog.program.source_lines;

  // Figure 3 in registry form: code generation cost per compilation.
  obs::MetricsRegistry& reg = obs::registry();
  reg.histogram("planp/jit/codegen_us").observe(stats.generation_ms * 1000.0);
  reg.counter("planp/jit/compiles").inc();
  reg.counter("planp/jit/input_instrs").inc(stats.input_instrs);
  reg.counter("planp/jit/output_instrs").inc(stats.output_instrs);
}

}  // namespace asp::planp
