#include "planp/compile.hpp"

#include <optional>
#include <unordered_map>

namespace asp::planp {

std::size_t CompiledProgram::total_instructions() const {
  std::size_t n = 0;
  for (const auto& b : global_inits) n += b.code.size();
  for (const auto& b : functions) n += b.code.size();
  for (const auto& b : channel_bodies) n += b.code.size();
  for (const auto& b : channel_inits) n += b.code.size();
  return n;
}

namespace {

BinCode bin_code(const std::string& op) {
  if (op == "+") return BinCode::kAdd;
  if (op == "-") return BinCode::kSub;
  if (op == "*") return BinCode::kMul;
  if (op == "/") return BinCode::kDiv;
  if (op == "%") return BinCode::kMod;
  if (op == "=") return BinCode::kEq;
  if (op == "<>") return BinCode::kNe;
  if (op == "<") return BinCode::kLt;
  if (op == "<=") return BinCode::kLe;
  if (op == ">") return BinCode::kGt;
  if (op == ">=") return BinCode::kGe;
  return BinCode::kConcat;  // "^"
}

class Compiler {
 public:
  explicit Compiler(const CheckedProgram& prog) : prog_(prog) {}

  CompiledProgram run() {
    out_.source = &prog_;
    for (const ValDef* v : prog_.globals) {
      out_.global_inits.push_back(block(*v->init, /*frame_slots=*/8));
    }
    for (const FunDef* f : prog_.functions) {
      out_.functions.push_back(block(*f->body, f->frame_slots));
    }
    for (const ChannelDef* c : prog_.channels) {
      out_.channel_bodies.push_back(block(*c->body, c->frame_slots));
      if (c->init_state != nullptr) {
        out_.channel_inits.push_back(block(*c->init_state, /*frame_slots=*/8));
      } else {
        out_.channel_inits.push_back(CodeBlock{});
      }
    }
    return std::move(out_);
  }

 private:
  CodeBlock block(const Expr& body, int frame_slots) {
    code_.clear();
    depth_ = 0;
    max_depth_ = 0;
    emit_expr(body);
    emit(Op::kReturn, 0, 0, -1);
    CodeBlock b;
    b.code = std::move(code_);
    b.frame_slots = frame_slots;
    b.max_stack = max_depth_ + 4;
    return b;
  }

  int emit(Op op, std::int32_t a, std::int32_t b, int stack_delta) {
    code_.push_back(Instr{op, a, b});
    depth_ += stack_delta;
    max_depth_ = std::max(max_depth_, depth_);
    return static_cast<int>(code_.size()) - 1;
  }

  std::int32_t constant(Value v) {
    // Every engine instance of the program reads the pool at once.
    freeze(v);
    // Scalars are deduplicated; aggregates appended as-is.
    for (std::size_t i = 0; i < out_.consts.size(); ++i) {
      const auto& rep = out_.consts[i].rep();
      if (rep.index() != v.rep().index()) continue;
      if (std::holds_alternative<TupleRep>(rep) || std::holds_alternative<TableRef>(rep) ||
          std::holds_alternative<Blob>(rep)) {
        continue;
      }
      if (out_.consts[i].equals(v)) return static_cast<std::int32_t>(i);
    }
    out_.consts.push_back(std::move(v));
    return static_cast<std::int32_t>(out_.consts.size()) - 1;
  }

  /// The value of a literal, or of a tuple built only of literals (which the
  /// compiler folds into one constant); nullopt for anything else.
  static std::optional<Value> literal(const Expr& e) {
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

  void patch(int at, std::int32_t target) { code_[static_cast<std::size_t>(at)].a = target; }
  std::int32_t here() const { return static_cast<std::int32_t>(code_.size()); }

  void emit_expr(const Expr& e) {
    using K = Expr::Kind;
    switch (e.kind) {
      case K::kIntLit:
        emit(Op::kConst, constant(Value::of_int(e.int_val)), 0, +1);
        return;
      case K::kBoolLit:
        emit(Op::kConst, constant(Value::of_bool(e.bool_val)), 0, +1);
        return;
      case K::kCharLit:
        emit(Op::kConst, constant(Value::of_char(e.char_val)), 0, +1);
        return;
      case K::kStringLit:
        emit(Op::kConst, constant(Value::of_string(e.str_val)), 0, +1);
        return;
      case K::kHostLit:
        emit(Op::kConst, constant(Value::of_host(e.host_val)), 0, +1);
        return;
      case K::kUnitLit:
        emit(Op::kConst, constant(Value::unit()), 0, +1);
        return;

      case K::kVar:
        if (is_local_var(e.var_slot)) {
          emit(Op::kLoadLocal, e.var_slot, 0, +1);
        } else {
          emit(Op::kLoadGlobal, global_index(e.var_slot), 0, +1);
        }
        return;

      case K::kLet:
        emit_expr(*e.args[0]);
        emit(Op::kStoreLocal, e.var_slot, 0, -1);
        emit_expr(*e.args[1]);
        return;

      case K::kIf: {
        emit_expr(*e.args[0]);
        int jf = emit(Op::kJumpIfFalse, 0, 0, -1);
        emit_expr(*e.args[1]);
        int depth_after_then = depth_;
        int jend = emit(Op::kJump, 0, 0, 0);
        patch(jf, here());
        depth_ = depth_after_then - 1;  // else starts from pre-then depth
        emit_expr(*e.args[2]);
        patch(jend, here());
        return;
      }

      case K::kSeq:
        for (std::size_t i = 0; i + 1 < e.args.size(); ++i) {
          emit_expr(*e.args[i]);
          emit(Op::kPop, 0, 0, -1);
        }
        emit_expr(*e.args.back());
        return;

      case K::kTuple:
        if (std::optional<Value> v = literal(e)) {
          emit(Op::kConst, constant(std::move(*v)), 0, +1);
          return;
        }
        for (const auto& a : e.args) emit_expr(*a);
        emit(Op::kMakeTuple, static_cast<std::int32_t>(e.args.size()), 0,
             1 - static_cast<int>(e.args.size()));
        return;

      case K::kProj:
        emit_expr(*e.args[0]);
        emit(Op::kProj, e.proj_index - 1, 0, 0);
        return;

      case K::kCall: {
        for (const auto& a : e.args) emit_expr(*a);
        int nargs = static_cast<int>(e.args.size());
        if (is_primitive_call(e.call_target)) {
          emit(Op::kCallPrim, e.call_target, nargs, 1 - nargs);
        } else {
          emit(Op::kCallFun, user_fun_index(e.call_target), nargs, 1 - nargs);
        }
        return;
      }

      case K::kBinOp:
        emit_expr(*e.args[0]);
        emit_expr(*e.args[1]);
        emit(Op::kBinOp, static_cast<std::int32_t>(bin_code(e.name)), 0, -1);
        return;

      case K::kUnOp:
        emit_expr(*e.args[0]);
        emit(e.name == "not" ? Op::kNot : Op::kNeg, 0, 0, 0);
        return;

      case K::kAnd: {
        // a and b  ==>  if !a then false else b
        emit_expr(*e.args[0]);
        int jf = emit(Op::kJumpIfFalse, 0, 0, -1);
        emit_expr(*e.args[1]);
        int jend = emit(Op::kJump, 0, 0, 0);
        patch(jf, here());
        --depth_;
        emit(Op::kConst, constant(Value::of_bool(false)), 0, +1);
        patch(jend, here());
        return;
      }

      case K::kOr: {
        emit_expr(*e.args[0]);
        int jt = emit(Op::kJumpIfTrue, 0, 0, -1);
        emit_expr(*e.args[1]);
        int jend = emit(Op::kJump, 0, 0, 0);
        patch(jt, here());
        --depth_;
        emit(Op::kConst, constant(Value::of_bool(true)), 0, +1);
        patch(jend, here());
        return;
      }

      case K::kRaise:
        emit(Op::kRaise, constant(Value::of_string(e.str_val)), 0, +1);
        return;

      case K::kTry: {
        int tp = emit(Op::kTryPush, 0, 0, 0);
        emit_expr(*e.args[0]);
        emit(Op::kTryPop, 0, 0, 0);
        int jend = emit(Op::kJump, 0, 0, 0);
        patch(tp, here());
        --depth_;  // handler starts from the depth at kTryPush
        emit_expr(*e.args[1]);
        patch(jend, here());
        return;
      }

      case K::kSend: {
        if (e.args.empty()) {
          emit(Op::kConst, constant(Value::unit()), 0, +1);  // drop(): dummy
        } else {
          emit_expr(*e.args[0]);
        }
        emit(Op::kSend, static_cast<std::int32_t>(e.send_kind),
             constant(Value::of_string(e.name)), -1);
        emit(Op::kConst, constant(Value::unit()), 0, +1);
        return;
      }
    }
    throw EvalBug{"compile: unhandled expression kind"};
  }

  const CheckedProgram& prog_;
  CompiledProgram out_;
  std::vector<Instr> code_;
  int depth_ = 0;
  int max_depth_ = 0;
};

}  // namespace

CompiledProgram compile(const CheckedProgram& prog) { return Compiler(prog).run(); }

}  // namespace asp::planp
