#include "planp/interp.hpp"

namespace asp::planp {

namespace {
/// Bumps the engine's call depth for one scope; exception-safe (PLAN-P
/// `raise` unwinds through eval).
struct DepthGuard {
  std::size_t& d;
  explicit DepthGuard(std::size_t& depth) : d(depth) { ++d; }
  ~DepthGuard() { --d; }
};
}  // namespace

Interp::Interp(const CheckedProgram& prog, EnvApi& env) : prog_(prog), env_(env) {
  for (const ChannelDef* c : prog_.channels) {
    plans_.push_back(compile_decode_plan(c->packet_type));
  }
  scratch_.resize(prog_.channels.size());
  globals_.reserve(prog_.globals.size());
  auto& fr = arena_.at_depth(depth_);
  DepthGuard g(depth_);
  for (const ValDef* v : prog_.globals) {
    fr.locals.clear();
    Frame f{fr.locals};
    globals_.push_back(eval(*v->init, f));
  }
}

Value Interp::init_state(int chan_idx) {
  const ChannelDef& c = *prog_.channels.at(static_cast<std::size_t>(chan_idx));
  if (c.init_state == nullptr) return default_value(c.ss_type);
  auto& fr = arena_.at_depth(depth_);
  DepthGuard g(depth_);
  fr.locals.clear();
  Frame f{fr.locals};
  return eval(*c.init_state, f);
}

States Interp::run_channel(int chan_idx, const Value& ps, const Value& ss,
                           const asp::net::Packet& packet) {
  const auto idx = static_cast<std::size_t>(chan_idx);
  const ChannelDef& c = *prog_.channels.at(idx);
  std::optional<Value> decoded = decode_packet(packet, plans_[idx], &scratch_[idx]);
  if (!decoded) throw EvalBug{"packet does not match channel '" + c.name + "'"};
  auto& fr = arena_.at_depth(depth_);
  DepthGuard g(depth_);
  fr.locals.clear();
  fr.locals.resize(static_cast<std::size_t>(c.frame_slots));
  fr.locals[0] = ps;
  fr.locals[1] = ss;
  fr.locals[2] = std::move(*decoded);
  // However the run ends, the frames let go of what it bound: the packet's
  // tuple, whose fields are dropped too unless the program kept it, so the
  // next decode refills it in place and nothing pins the payload.
  struct Release {
    mem::FrameArena<Value>& arena;
    TupleRep& scratch;
    ~Release() {
      if (mem::poison_enabled()) {
        // Any reference still pointing into a frame now reads the sentinel;
        // the differential fuzz suite runs with this on to catch
        // use-after-reuse.
        const Value sentinel = Value::of_int(mem::kPoisonInt);
        for (std::size_t d = 0; d < arena.depth(); ++d) arena.scribble(d, sentinel);
      } else {
        for (std::size_t d = 0; d < arena.depth(); ++d) arena.clear(d);
      }
      if (scratch.use_count() == 1) scratch->clear();
    }
  } release{arena_, scratch_[idx]};
  Frame f{fr.locals};
  const Value out = eval(*c.body, f);
  return {out.as_tuple()[0], out.as_tuple()[1]};
}

Value Interp::eval_expr(const Expr& e) {
  auto& fr = arena_.at_depth(depth_);
  DepthGuard g(depth_);
  fr.locals.clear();
  fr.locals.resize(64);  // generous scratch space for test expressions
  Frame f{fr.locals};
  return eval(e, f);
}

Value Interp::call_function(const FunDef& fun, mem::FrameArena<Value>::Frame& fr) {
  // The arguments were staged into fr.args by the caller (kCall); move them
  // into the leading local slots.
  fr.locals.clear();
  fr.locals.resize(static_cast<std::size_t>(fun.frame_slots));
  for (std::size_t i = 0; i < fr.args.size(); ++i) fr.locals[i] = std::move(fr.args[i]);
  Frame f{fr.locals};
  return eval(*fun.body, f);
}

Value Interp::eval(const Expr& e, Frame& f) {
  using K = Expr::Kind;
  switch (e.kind) {
    case K::kIntLit: return Value::of_int(e.int_val);
    case K::kBoolLit: return Value::of_bool(e.bool_val);
    case K::kCharLit: return Value::of_char(e.char_val);
    case K::kStringLit: return Value::of_string(e.str_val);
    case K::kHostLit: return Value::of_host(e.host_val);
    case K::kUnitLit: return Value::unit();

    case K::kVar:
      if (is_local_var(e.var_slot)) {
        return f.slots[static_cast<std::size_t>(e.var_slot)];
      }
      return globals_[static_cast<std::size_t>(global_index(e.var_slot))];

    case K::kLet: {
      Value v = eval(*e.args[0], f);
      if (f.slots.size() <= static_cast<std::size_t>(e.var_slot)) {
        f.slots.resize(static_cast<std::size_t>(e.var_slot) + 1);
      }
      f.slots[static_cast<std::size_t>(e.var_slot)] = std::move(v);
      return eval(*e.args[1], f);
    }

    case K::kIf:
      return eval(*e.args[0], f).as_bool() ? eval(*e.args[1], f)
                                           : eval(*e.args[2], f);

    case K::kSeq: {
      for (std::size_t i = 0; i + 1 < e.args.size(); ++i) eval(*e.args[i], f);
      return eval(*e.args.back(), f);
    }

    case K::kTuple: {
      TupleRep t = Value::make_tuple_storage(e.args.size());
      for (const auto& a : e.args) t->push_back(eval(*a, f));
      return Value::of_tuple_rep(std::move(t));
    }

    case K::kProj:
      return eval(*e.args[0], f).as_tuple()[static_cast<std::size_t>(e.proj_index - 1)];

    case K::kCall: {
      // Stage arguments directly in the callee's arena frame. The depth is
      // bumped for the whole call, so nested kCalls inside the argument
      // expressions stage one level deeper and cannot stomp this frame.
      auto& callee = arena_.at_depth(depth_);
      DepthGuard g(depth_);
      callee.args.clear();
      for (const auto& a : e.args) callee.args.push_back(eval(*a, f));
      if (is_primitive_call(e.call_target)) {
        return Primitives::instance().at(e.call_target).fn(env_, callee.args);
      }
      const FunDef& fun =
          *prog_.functions[static_cast<std::size_t>(user_fun_index(e.call_target))];
      return call_function(fun, callee);
    }

    case K::kBinOp: {
      const std::string& op = e.name;
      if (op == "=" || op == "<>") {
        bool eq = eval(*e.args[0], f).equals(eval(*e.args[1], f));
        return Value::of_bool(op == "=" ? eq : !eq);
      }
      if (op == "^") {
        std::string s = eval(*e.args[0], f).as_string();
        return Value::of_string(s + eval(*e.args[1], f).as_string());
      }
      if (op == "<" || op == "<=" || op == ">" || op == ">=") {
        Value a = eval(*e.args[0], f);
        Value b = eval(*e.args[1], f);
        int cmp;
        if (const auto* s = std::get_if<std::string>(&a.rep())) {
          cmp = s->compare(b.as_string());
        } else if (const auto* c = std::get_if<char>(&a.rep())) {
          cmp = *c - b.as_char();
        } else {
          std::int64_t x = a.as_int(), y = b.as_int();
          cmp = x < y ? -1 : (x > y ? 1 : 0);
        }
        bool r = op == "<" ? cmp < 0 : op == "<=" ? cmp <= 0
                 : op == ">"         ? cmp > 0
                                     : cmp >= 0;
        return Value::of_bool(r);
      }
      std::int64_t a = eval(*e.args[0], f).as_int();
      std::int64_t b = eval(*e.args[1], f).as_int();
      if (op == "+") return Value::of_int(a + b);
      if (op == "-") return Value::of_int(a - b);
      if (op == "*") return Value::of_int(a * b);
      if (b == 0) throw PlanPException{"DivByZero"};
      if (op == "/") return Value::of_int(a / b);
      return Value::of_int(a % b);  // "%"
    }

    case K::kUnOp:
      if (e.name == "not") return Value::of_bool(!eval(*e.args[0], f).as_bool());
      return Value::of_int(-eval(*e.args[0], f).as_int());

    case K::kAnd:
      return Value::of_bool(eval(*e.args[0], f).as_bool() &&
                            eval(*e.args[1], f).as_bool());
    case K::kOr:
      return Value::of_bool(eval(*e.args[0], f).as_bool() ||
                            eval(*e.args[1], f).as_bool());

    case K::kRaise:
      throw PlanPException{e.str_val};

    case K::kTry:
      try {
        return eval(*e.args[0], f);
      } catch (const PlanPException&) {
        return eval(*e.args[1], f);
      }

    case K::kSend: {
      switch (e.send_kind) {
        case SendKind::kOnRemote:
          env_.on_remote(e.chan_tag, encode_packet(eval(*e.args[0], f), 0));
          break;
        case SendKind::kOnNeighbor:
          env_.on_neighbor(e.chan_tag, encode_packet(eval(*e.args[0], f), 0));
          break;
        case SendKind::kDeliver:
          env_.deliver(encode_packet(eval(*e.args[0], f), 0));
          break;
        case SendKind::kDrop:
          env_.drop();
          break;
      }
      return Value::unit();
    }
  }
  throw EvalBug{"unhandled expression kind"};
}

}  // namespace asp::planp
