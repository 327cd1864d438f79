#include "planp/typecheck.hpp"

#include <map>

#include "net/packet.hpp"
#include "planp/primitives.hpp"

namespace asp::planp {

namespace {

bool is_bottom(const TypePtr& t) { return t->is(Type::Kind::kBottom); }

/// Equal, or one side is bottom (raise unifies with anything).
bool compatible(const TypePtr& a, const TypePtr& b) {
  return is_bottom(a) || is_bottom(b) || a->equals(*b);
}

/// Picks the more informative of two compatible types.
TypePtr join(const TypePtr& a, const TypePtr& b) { return is_bottom(a) ? b : a; }

bool contains_var(const TypePtr& t) {
  if (t->is(Type::Kind::kVar)) return true;
  for (const auto& a : t->args()) {
    if (contains_var(a)) return true;
  }
  return false;
}

using Subst = std::map<int, TypePtr>;

TypePtr substitute(const TypePtr& t, const Subst& s) {
  if (t->is(Type::Kind::kVar)) {
    auto it = s.find(t->var_id());
    return it != s.end() ? it->second : t;
  }
  if (t->args().empty()) return t;
  std::vector<TypePtr> args;
  args.reserve(t->args().size());
  bool changed = false;
  for (const auto& a : t->args()) {
    TypePtr sub = substitute(a, s);
    changed = changed || sub != a;
    args.push_back(std::move(sub));
  }
  if (!changed) return t;
  return std::make_shared<Type>(t->kind(), std::move(args), t->var_id());
}

/// One-way unification: variables occur only in `pat`.
bool unify(const TypePtr& pat, const TypePtr& actual, Subst& s) {
  if (pat->is(Type::Kind::kVar)) {
    auto it = s.find(pat->var_id());
    if (it != s.end()) return it->second->equals(*actual);
    s[pat->var_id()] = actual;
    return true;
  }
  if (is_bottom(actual)) return true;  // raise fits any slot
  if (pat->kind() != actual->kind()) return false;
  if (pat->args().size() != actual->args().size()) return false;
  for (std::size_t i = 0; i < pat->args().size(); ++i) {
    if (!unify(pat->args()[i], actual->args()[i], s)) return false;
  }
  return true;
}

struct LocalBinding {
  std::string name;
  TypePtr type;
  int slot;
};

struct GlobalBinding {
  TypePtr type;
  int index;
};

class Checker {
 public:
  explicit Checker(Program p) { checked_.program = std::move(p); }

  CheckedProgram run() {
    collect_decls();
    for (auto& d : checked_.program.decls) {
      if (auto* v = std::get_if<ValDef>(&d)) {
        check_val(*v);
      } else if (auto* f = std::get_if<FunDef>(&d)) {
        check_fun(*f);
      } else {
        check_channel(std::get<ChannelDef>(d));
      }
    }
    return std::move(checked_);
  }

 private:
  [[noreturn]] void fail(Loc loc, const std::string& msg) {
    throw PlanPError("type", loc, msg);
  }

  void collect_decls() {
    // Channels are visible program-wide (OnRemote may target a channel
    // defined later); values and functions strictly earlier-only.
    for (auto& d : checked_.program.decls) {
      if (auto* c = std::get_if<ChannelDef>(&d)) {
        if (!is_packet_type(c->packet_type)) {
          fail(c->loc, "channel '" + c->name + "' packet type " +
                           c->packet_type->str() +
                           " is not a valid packet type (want ip [*tcp|*udp] "
                           "[*scalar fields] [*blob])");
        }
        int idx = static_cast<int>(checked_.channels.size());
        checked_.channels.push_back(c);
        checked_.plans.push_back(compile_decode_plan(c->packet_type));
        auto& overloads = checked_.channels_by_name[c->name];
        for (int prev : overloads) {
          if (checked_.channels[prev]->packet_type->equals(*c->packet_type)) {
            fail(c->loc, "duplicate channel '" + c->name +
                             "' with identical packet type " +
                             c->packet_type->str());
          }
        }
        overloads.push_back(idx);
      }
    }
  }

  // --- declarations ----------------------------------------------------------
  void check_val(ValDef& v) {
    if (globals_.count(v.name) || fun_index_.count(v.name)) {
      fail(v.loc, "duplicate definition of '" + v.name + "'");
    }
    if (contains_var(v.type) || v.type->is(Type::Kind::kBottom)) {
      fail(v.loc, "invalid type annotation on '" + v.name + "'");
    }
    locals_.clear();
    next_slot_ = 0;
    max_slot_ = 0;
    check(*v.init, &v.type);
    int idx = static_cast<int>(checked_.globals.size());
    checked_.globals.push_back(&v);
    globals_[v.name] = GlobalBinding{v.type, idx};
  }

  void check_fun(FunDef& f) {
    if (globals_.count(f.name) || fun_index_.count(f.name)) {
      fail(f.loc, "duplicate definition of '" + f.name + "'");
    }
    if (Primitives::instance().known(f.name)) {
      fail(f.loc, "function '" + f.name + "' shadows a built-in primitive");
    }
    locals_.clear();
    next_slot_ = 0;
    max_slot_ = 0;
    for (const auto& [pname, ptype] : f.params) push_local(f.loc, pname, ptype);
    check(*f.body, &f.ret);
    f.frame_slots = max_slot_;
    // Visible to *later* definitions only: no recursion, no mutual recursion.
    int idx = static_cast<int>(checked_.functions.size());
    checked_.functions.push_back(&f);
    fun_index_[f.name] = idx;
  }

  void check_channel(ChannelDef& c) {
    locals_.clear();
    next_slot_ = 0;
    max_slot_ = 0;
    push_local(c.loc, c.ps_name, c.ps_type);
    push_local(c.loc, c.ss_name, c.ss_type);
    push_local(c.loc, c.p_name, c.packet_type);
    if (c.init_state != nullptr) {
      // initstate is evaluated in the global environment (no ps/ss/p); check
      // it in a fresh scope.
      std::vector<LocalBinding> saved;
      saved.swap(locals_);
      int saved_next = next_slot_;
      next_slot_ = 0;
      check(*c.init_state, &c.ss_type);
      locals_.swap(saved);
      next_slot_ = saved_next;
    }
    TypePtr result = Type::Tuple({c.ps_type, c.ss_type});
    check(*c.body, &result);
    c.frame_slots = max_slot_;
  }

  // --- scopes ----------------------------------------------------------------
  int push_local(Loc loc, const std::string& name, const TypePtr& type) {
    if (contains_var(type) || type->is(Type::Kind::kBottom)) {
      fail(loc, "invalid type annotation on '" + name + "'");
    }
    int slot = next_slot_++;
    max_slot_ = std::max(max_slot_, next_slot_);
    locals_.push_back(LocalBinding{name, type, slot});
    return slot;
  }

  void pop_local() {
    locals_.pop_back();
    --next_slot_;
  }

  // --- expression checking ----------------------------------------------------
  // Checks `e`, returns its type, enforces `expected` when non-null.
  TypePtr check(Expr& e, const TypePtr* expected) {
    TypePtr t = infer(e, expected);
    if (expected != nullptr && !compatible(t, *expected)) {
      fail(e.loc, "expected " + (*expected)->str() + ", found " + t->str());
    }
    e.type = (expected != nullptr && is_bottom(t)) ? *expected : t;
    return e.type;
  }

  TypePtr infer(Expr& e, const TypePtr* expected) {
    using K = Expr::Kind;
    switch (e.kind) {
      case K::kIntLit: return Type::Int();
      case K::kBoolLit: return Type::Bool();
      case K::kCharLit: return Type::Char();
      case K::kStringLit: return Type::String();
      case K::kHostLit: return Type::Host();
      case K::kUnitLit: return Type::Unit();
      case K::kVar: return check_var(e);
      case K::kLet: return check_let(e, expected);
      case K::kIf: return check_if(e, expected);
      case K::kSeq: {
        for (std::size_t i = 0; i + 1 < e.args.size(); ++i) {
          check(*e.args[i], nullptr);
        }
        return check(*e.args.back(), expected);
      }
      case K::kTuple: return check_tuple(e, expected);
      case K::kProj: return check_proj(e);
      case K::kCall: return check_call(e, expected);
      case K::kBinOp: return check_binop(e);
      case K::kUnOp: return check_unop(e);
      case K::kAnd:
      case K::kOr: {
        TypePtr b = Type::Bool();
        check(*e.args[0], &b);
        check(*e.args[1], &b);
        return b;
      }
      case K::kRaise: return Type::Bottom();
      case K::kTry: return check_try(e, expected);
      case K::kSend: return check_send(e);
    }
    fail(e.loc, "unreachable expression kind");
  }

  TypePtr check_var(Expr& e) {
    for (auto it = locals_.rbegin(); it != locals_.rend(); ++it) {
      if (it->name == e.name) {
        e.var_slot = it->slot;
        return it->type;
      }
    }
    auto git = globals_.find(e.name);
    if (git != globals_.end()) {
      e.var_slot = encode_global(git->second.index);
      return git->second.type;
    }
    fail(e.loc, "unbound variable '" + e.name + "'");
  }

  TypePtr check_let(Expr& e, const TypePtr* expected) {
    check(*e.args[0], &e.decl_type);
    e.var_slot = push_local(e.loc, e.name, e.decl_type);
    TypePtr t = check(*e.args[1], expected);
    pop_local();
    return t;
  }

  TypePtr check_if(Expr& e, const TypePtr* expected) {
    TypePtr b = Type::Bool();
    check(*e.args[0], &b);
    if (expected != nullptr) {
      check(*e.args[1], expected);
      check(*e.args[2], expected);
      return *expected;
    }
    TypePtr t1 = check(*e.args[1], nullptr);
    TypePtr t2 = check(*e.args[2], nullptr);
    if (!compatible(t1, t2)) {
      fail(e.loc, "if branches have different types: " + t1->str() + " vs " +
                      t2->str());
    }
    return join(t1, t2);
  }

  TypePtr check_tuple(Expr& e, const TypePtr* expected) {
    const Type* want = nullptr;
    if (expected != nullptr && (*expected)->is_tuple() &&
        (*expected)->args().size() == e.args.size()) {
      want = expected->get();
    }
    std::vector<TypePtr> elems;
    elems.reserve(e.args.size());
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      const TypePtr* exp_i = want != nullptr ? &want->args()[i] : nullptr;
      elems.push_back(check(*e.args[i], exp_i));
    }
    return Type::Tuple(std::move(elems));
  }

  TypePtr check_proj(Expr& e) {
    TypePtr t = check(*e.args[0], nullptr);
    if (!t->is_tuple()) {
      fail(e.loc, "#" + std::to_string(e.proj_index) + " applied to non-tuple " +
                      t->str());
    }
    if (e.proj_index < 1 || e.proj_index > static_cast<int>(t->args().size())) {
      fail(e.loc, "#" + std::to_string(e.proj_index) + " out of range for " +
                      t->str());
    }
    return t->args()[static_cast<std::size_t>(e.proj_index - 1)];
  }

  TypePtr check_call(Expr& e, const TypePtr* expected) {
    // User functions first (they cannot shadow primitives; enforced above).
    auto fit = fun_index_.find(e.name);
    if (fit != fun_index_.end()) {
      const FunDef& f = *checked_.functions[static_cast<std::size_t>(fit->second)];
      if (f.params.size() != e.args.size()) {
        fail(e.loc, "function '" + e.name + "' expects " +
                        std::to_string(f.params.size()) + " arguments, got " +
                        std::to_string(e.args.size()));
      }
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        check(*e.args[i], &f.params[i].second);
      }
      e.call_target = encode_user_fun(fit->second);
      return f.ret;
    }

    const auto& overloads = Primitives::instance().overloads(e.name);
    if (overloads.empty()) {
      fail(e.loc, "unknown function or primitive '" + e.name + "'");
    }
    std::string attempts;
    for (int idx : overloads) {
      const Primitive& prim = Primitives::instance().at(idx);
      if (prim.params.size() != e.args.size()) continue;
      if (try_primitive(e, prim, expected)) {
        e.call_target = idx;
        return e.type;  // set by try_primitive
      }
      attempts += "\n  candidate: " + e.name + signature(prim);
    }
    fail(e.loc, "no matching overload for '" + e.name + "'" + attempts);
  }

  static std::string signature(const Primitive& p) {
    std::string s = "(";
    for (std::size_t i = 0; i < p.params.size(); ++i) {
      if (i > 0) s += ", ";
      s += p.params[i]->str();
    }
    return s + ") : " + p.ret->str();
  }

  bool try_primitive(Expr& e, const Primitive& prim, const TypePtr* expected) {
    // Probing can fail mid-expression (e.g. inside a let); snapshot the scope
    // so a failed attempt cannot leave dangling bindings behind.
    std::vector<LocalBinding> saved_locals = locals_;
    int saved_next = next_slot_;
    auto restore = [&] {
      locals_ = saved_locals;
      next_slot_ = saved_next;
    };
    Subst subst;
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      TypePtr want = substitute(prim.params[i], subst);
      if (!contains_var(want)) {
        // Fully known: push it down (enables nested mkTable etc.). A failure
        // inside throws; convert into overload mismatch only when arity-safe:
        // primitives are few, so just let the error propagate if this is the
        // sole overload — otherwise probe non-destructively.
        try {
          check(*e.args[i], &want);
        } catch (const PlanPError&) {
          if (Primitives::instance().overloads(e.name).size() == 1) throw;
          restore();
          return false;
        }
      } else {
        TypePtr got = check(*e.args[i], nullptr);
        if (!unify(want, got, subst)) {
          restore();
          return false;
        }
      }
    }
    TypePtr ret = substitute(prim.ret, subst);
    if (contains_var(ret)) {
      if (expected != nullptr && unify(ret, *expected, subst)) {
        ret = substitute(ret, subst);
      }
      if (contains_var(ret)) {
        fail(e.loc, "cannot infer result type of '" + e.name +
                        "'; add a type annotation");
      }
    }
    e.type = ret;
    return true;
  }

  TypePtr check_binop(Expr& e) {
    const std::string& op = e.name;
    if (op == "+" || op == "-" || op == "*" || op == "/" || op == "%") {
      TypePtr i = Type::Int();
      check(*e.args[0], &i);
      check(*e.args[1], &i);
      return i;
    }
    if (op == "^") {
      TypePtr s = Type::String();
      check(*e.args[0], &s);
      check(*e.args[1], &s);
      return s;
    }
    TypePtr t1 = check(*e.args[0], nullptr);
    TypePtr t2 = check(*e.args[1], is_bottom(t1) ? nullptr : &t1);
    TypePtr t = join(t1, t2);
    if (op == "=" || op == "<>") {
      if (!is_equality_type(t)) {
        fail(e.loc, "'" + op + "' requires an equality type, found " + t->str());
      }
      return Type::Bool();
    }
    // Ordering comparisons.
    switch (t->kind()) {
      case Type::Kind::kInt:
      case Type::Kind::kChar:
      case Type::Kind::kString:
        return Type::Bool();
      default:
        fail(e.loc, "'" + op + "' requires int, char or string, found " + t->str());
    }
  }

  TypePtr check_unop(Expr& e) {
    if (e.name == "not") {
      TypePtr b = Type::Bool();
      check(*e.args[0], &b);
      return b;
    }
    TypePtr i = Type::Int();
    check(*e.args[0], &i);
    return i;
  }

  TypePtr check_try(Expr& e, const TypePtr* expected) {
    TypePtr t1 = check(*e.args[0], expected);
    const TypePtr* exp2 = expected;
    if (exp2 == nullptr && !is_bottom(t1)) exp2 = &t1;
    TypePtr t2 = check(*e.args[1], exp2);
    return join(t1, t2);
  }

  TypePtr check_send(Expr& e) {
    switch (e.send_kind) {
      case SendKind::kOnRemote:
      case SendKind::kOnNeighbor: {
        auto it = checked_.channels_by_name.find(e.name);
        if (it == checked_.channels_by_name.end()) {
          fail(e.loc, "unknown channel '" + e.name + "'");
        }
        // Interned once here, so both engines send by tag and no packet
        // path ever hashes the name.
        e.chan_tag = net::ChannelTags::intern(e.name);
        const std::vector<int>& overloads = it->second;
        if (overloads.size() == 1) {
          const TypePtr& pt =
              checked_.channels[static_cast<std::size_t>(overloads[0])]->packet_type;
          check(*e.args[0], &pt);
        } else {
          TypePtr got = check(*e.args[0], nullptr);
          bool ok = false;
          for (int idx : overloads) {
            if (checked_.channels[static_cast<std::size_t>(idx)]
                    ->packet_type->equals(*got)) {
              ok = true;
              break;
            }
          }
          if (!ok) {
            fail(e.loc, "no overload of channel '" + e.name +
                            "' accepts packet type " + got->str());
          }
        }
        return Type::Unit();
      }
      case SendKind::kDeliver: {
        TypePtr t = check(*e.args[0], nullptr);
        if (!is_packet_type(t)) {
          fail(e.loc, "deliver() requires a packet value, found " + t->str());
        }
        return Type::Unit();
      }
      case SendKind::kDrop:
        return Type::Unit();
    }
    fail(e.loc, "unreachable send kind");
  }

  CheckedProgram checked_;
  std::vector<LocalBinding> locals_;
  std::unordered_map<std::string, GlobalBinding> globals_;
  std::unordered_map<std::string, int> fun_index_;
  int next_slot_ = 0;
  int max_slot_ = 0;
};

}  // namespace

CheckedProgram typecheck(Program p) { return Checker(std::move(p)).run(); }

}  // namespace asp::planp
