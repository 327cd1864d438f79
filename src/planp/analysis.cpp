#include "planp/analysis.hpp"

#include <chrono>
#include <map>
#include <set>
#include <vector>

#include "obs/metrics.hpp"
#include "planp/primitives.hpp"

namespace asp::planp {

namespace {

// ---------------------------------------------------------------------------
// Abstract destinations for the global-termination exploration.
// ---------------------------------------------------------------------------

struct AHost {
  enum Kind { kOrigDst, kOrigSrc, kThis, kLit, kTop } kind = kTop;
  asp::net::Ipv4Addr lit;

  bool operator<(const AHost& o) const {
    if (kind != o.kind) return kind < o.kind;
    return lit < o.lit;
  }
  bool operator==(const AHost& o) const { return kind == o.kind && lit == o.lit; }
  std::string str() const {
    switch (kind) {
      case kOrigDst: return "dst";
      case kOrigSrc: return "src";
      case kThis: return "this";
      case kLit: return "lit:" + lit.str();
      case kTop: return "?";
    }
    return "?";
  }
};

/// Abstract value of an expression, tracking just enough to know what an
/// outgoing packet's IP destination is.
struct AbsVal {
  enum Kind {
    kPacketIn,    // the incoming packet tuple, unmodified
    kHdrIn,       // the incoming IP header, unmodified
    kHdrWithDst,  // an IP header whose dst is `host`
    kHost,        // a host value
    kOther,
  } kind = kOther;
  AHost host;

  static AbsVal other() { return {}; }
};

/// One packet emission found in a channel.
struct SendSite {
  std::string target_channel;  // empty for deliver/drop
  SendKind kind;
  AHost dst;  // where the emitted packet is headed
};

/// Walks expressions, computing abstract values and collecting send sites.
/// Function calls are inlined (the call graph is a DAG, so this terminates).
class AbsScanner {
 public:
  explicit AbsScanner(const CheckedProgram& prog) : prog_(prog) {}

  std::vector<SendSite> scan_channel(const ChannelDef& c) {
    sends_.clear();
    std::map<int, AbsVal> env;
    env[2] = AbsVal{AbsVal::kPacketIn, {}};  // slot 2 = packet parameter
    eval(*c.body, env);
    return std::move(sends_);
  }

 private:
  AbsVal eval(const Expr& e, std::map<int, AbsVal>& env) {
    using K = Expr::Kind;
    switch (e.kind) {
      case K::kHostLit:
        return AbsVal{AbsVal::kHost, AHost{AHost::kLit, e.host_val}};
      case K::kVar: {
        if (is_local_var(e.var_slot)) {
          auto it = env.find(e.var_slot);
          if (it != env.end()) return it->second;
        }
        return AbsVal::other();
      }
      case K::kLet: {
        AbsVal v = eval(*e.args[0], env);
        auto saved = env.find(e.var_slot) != env.end()
                         ? std::optional<AbsVal>(env[e.var_slot])
                         : std::nullopt;
        env[e.var_slot] = v;
        AbsVal r = eval(*e.args[1], env);
        if (saved) {
          env[e.var_slot] = *saved;
        } else {
          env.erase(e.var_slot);
        }
        return r;
      }
      case K::kIf: {
        eval(*e.args[0], env);
        AbsVal a = eval(*e.args[1], env);
        AbsVal b = eval(*e.args[2], env);
        if (a.kind == b.kind && a.host == b.host) return a;
        return AbsVal::other();
      }
      case K::kSeq: {
        AbsVal last = AbsVal::other();
        for (const auto& a : e.args) last = eval(*a, env);
        return last;
      }
      case K::kProj: {
        AbsVal t = eval(*e.args[0], env);
        if (t.kind == AbsVal::kPacketIn && e.proj_index == 1) {
          return AbsVal{AbsVal::kHdrIn, {}};
        }
        return AbsVal::other();
      }
      case K::kTuple: {
        // A packet literal: its "identity" for send purposes is its header.
        AbsVal first = AbsVal::other();
        for (std::size_t i = 0; i < e.args.size(); ++i) {
          AbsVal v = eval(*e.args[i], env);
          if (i == 0) first = v;
        }
        if (first.kind == AbsVal::kHdrIn || first.kind == AbsVal::kHdrWithDst) {
          return first;
        }
        return AbsVal::other();
      }
      case K::kCall: {
        std::vector<AbsVal> args;
        args.reserve(e.args.size());
        for (const auto& a : e.args) args.push_back(eval(*a, env));
        if (is_primitive_call(e.call_target)) {
          return eval_primitive(e.name, args);
        }
        // Inline the user function.
        const FunDef& f =
            *prog_.functions[static_cast<std::size_t>(user_fun_index(e.call_target))];
        std::map<int, AbsVal> fenv;
        for (std::size_t i = 0; i < args.size(); ++i) {
          fenv[static_cast<int>(i)] = args[i];
        }
        return eval(f.body != nullptr ? *f.body : *e.args[0], fenv);
      }
      case K::kTry: {
        AbsVal a = eval(*e.args[0], env);
        AbsVal b = eval(*e.args[1], env);
        if (a.kind == b.kind && a.host == b.host) return a;
        return AbsVal::other();
      }
      case K::kSend: {
        SendSite site;
        site.kind = e.send_kind;
        site.target_channel = e.name;
        site.dst = AHost{AHost::kTop, {}};
        if (!e.args.empty()) {
          AbsVal pkt = eval(*e.args[0], env);
          if (pkt.kind == AbsVal::kPacketIn || pkt.kind == AbsVal::kHdrIn) {
            site.dst = AHost{AHost::kOrigDst, {}};
          } else if (pkt.kind == AbsVal::kHdrWithDst) {
            site.dst = pkt.host;
          }
        }
        if (e.send_kind == SendKind::kOnRemote || e.send_kind == SendKind::kOnNeighbor) {
          sends_.push_back(site);
        }
        return AbsVal::other();
      }
      default: {
        for (const auto& a : e.args) eval(*a, env);
        return AbsVal::other();
      }
    }
  }

  AbsVal eval_primitive(const std::string& name, const std::vector<AbsVal>& args) {
    if (name == "ipDestSet" && args.size() == 2 &&
        (args[0].kind == AbsVal::kHdrIn || args[0].kind == AbsVal::kHdrWithDst)) {
      if (args[1].kind == AbsVal::kHost) {
        return AbsVal{AbsVal::kHdrWithDst, args[1].host};
      }
      return AbsVal{AbsVal::kHdrWithDst, AHost{AHost::kTop, {}}};
    }
    if (name == "ipSrcSet" && !args.empty()) return args[0];  // dst untouched
    if (name == "ipTosSet" && !args.empty()) return args[0];
    if (name == "ipSrc" && !args.empty() && args[0].kind == AbsVal::kHdrIn) {
      return AbsVal{AbsVal::kHost, AHost{AHost::kOrigSrc, {}}};
    }
    if (name == "ipDst" && !args.empty() && args[0].kind == AbsVal::kHdrIn) {
      return AbsVal{AbsVal::kHost, AHost{AHost::kOrigDst, {}}};
    }
    if (name == "thisHost") {
      return AbsVal{AbsVal::kHost, AHost{AHost::kThis, {}}};
    }
    return AbsVal::other();
  }

  const CheckedProgram& prog_;
  std::vector<SendSite> sends_;
};

// ---------------------------------------------------------------------------
// Global termination: explore (channel, abstract dst) states.
// ---------------------------------------------------------------------------

struct TerminationResult {
  bool ok;
  std::string detail;
  int states;
};

TerminationResult check_global_termination(
    const CheckedProgram& prog,
    const std::vector<std::vector<SendSite>>& channel_sends) {
  struct State {
    int chan;
    AHost dst;
    bool operator<(const State& o) const {
      if (chan != o.chan) return chan < o.chan;
      return dst < o.dst;
    }
  };
  struct Edge {
    State to;
    bool changed;
  };

  // Applies a send's destination effect to a current abstract destination.
  auto step = [](const AHost& cur, const AHost& send_dst) -> std::pair<AHost, bool> {
    switch (send_dst.kind) {
      case AHost::kOrigDst:
        return {cur, false};  // destination preserved: progress under routing
      case AHost::kLit:
        return {send_dst, !(cur == send_dst)};
      case AHost::kOrigSrc:
      case AHost::kThis:
      case AHost::kTop:
        return {send_dst, true};  // conservative: may redirect every hop
    }
    return {send_dst, true};
  };

  std::map<State, std::vector<Edge>> graph;
  std::vector<State> work;
  auto touch = [&](const State& s) {
    if (graph.emplace(s, std::vector<Edge>{}).second) work.push_back(s);
  };
  for (std::size_t c = 0; c < prog.channels.size(); ++c) {
    touch(State{static_cast<int>(c), AHost{AHost::kOrigDst, {}}});
  }
  while (!work.empty()) {
    State s = work.back();
    work.pop_back();
    for (const SendSite& send : channel_sends[static_cast<std::size_t>(s.chan)]) {
      auto it = prog.channels_by_name.find(send.target_channel);
      if (it == prog.channels_by_name.end()) continue;
      auto [ndst, changed] = step(s.dst, send.dst);
      for (int target : it->second) {
        State t{target, ndst};
        touch(t);
        graph[s].push_back(Edge{t, changed});
      }
    }
  }

  // A violation is a reachable cycle containing a destination-changing edge.
  // DFS-based: for each changed edge u->v, check whether u is reachable from v.
  auto reaches = [&](const State& from, const State& to) {
    std::set<State> seen;
    std::vector<State> stack{from};
    while (!stack.empty()) {
      State s = stack.back();
      stack.pop_back();
      if (s.chan == to.chan && s.dst == to.dst) return true;
      if (!seen.insert(s).second) continue;
      for (const Edge& e : graph[s]) stack.push_back(e.to);
    }
    return false;
  };

  for (const auto& [u, edges] : graph) {
    for (const Edge& e : edges) {
      if (e.changed && reaches(e.to, u)) {
        const ChannelDef& c = *prog.channels[static_cast<std::size_t>(u.chan)];
        return {false,
                "potential packet cycle through channel '" + c.name +
                    "' (destination rewritten to " + e.to.dst.str() +
                    " inside a loop)",
                static_cast<int>(graph.size())};
      }
    }
  }
  return {true, "no destination-rewriting cycles", static_cast<int>(graph.size())};
}

// ---------------------------------------------------------------------------
// Guaranteed delivery.
// ---------------------------------------------------------------------------

class DeliveryAnalysis {
 public:
  explicit DeliveryAnalysis(const CheckedProgram& prog) : prog_(prog) {
    fun_raise_.resize(prog.functions.size());
    fun_sends_.resize(prog.functions.size());
    for (std::size_t i = 0; i < prog.functions.size(); ++i) {
      fun_raise_[i] = may_raise(*prog.functions[i]->body);
      fun_sends_[i] = delivered(*prog.functions[i]->body);
    }
  }

  bool may_raise(const Expr& e) {
    using K = Expr::Kind;
    switch (e.kind) {
      case K::kRaise:
        return true;
      case K::kTry:
        // The protected part's raises are caught; the handler's are not.
        return may_raise(*e.args[1]);
      case K::kBinOp:
        if (e.name == "/" || e.name == "%") {
          // Constant non-zero divisor is safe.
          const Expr& d = *e.args[1];
          bool const_nonzero = d.kind == K::kIntLit && d.int_val != 0;
          if (!const_nonzero) return true;
        }
        break;
      case K::kCall:
        if (is_primitive_call(e.call_target)) {
          if (Primitives::instance().at(e.call_target).may_raise) return true;
        } else if (fun_raise_[static_cast<std::size_t>(user_fun_index(e.call_target))]) {
          return true;
        }
        break;
      default:
        break;
    }
    for (const auto& a : e.args) {
      if (may_raise(*a)) return true;
    }
    return false;
  }

  /// True if every normally-terminating execution of `e` emits at least one
  /// OnRemote/OnNeighbor/deliver.
  bool delivered(const Expr& e) {
    using K = Expr::Kind;
    switch (e.kind) {
      case K::kSend:
        return e.send_kind != SendKind::kDrop;
      case K::kIf:
        return delivered(*e.args[0]) ||
               (delivered(*e.args[1]) && delivered(*e.args[2]));
      case K::kTry:
        return delivered(*e.args[0]) &&
               (!may_raise(*e.args[0]) || delivered(*e.args[1]));
      case K::kAnd:
      case K::kOr:
        return delivered(*e.args[0]);  // second operand may be skipped
      case K::kCall:
        if (!is_primitive_call(e.call_target) &&
            fun_sends_[static_cast<std::size_t>(user_fun_index(e.call_target))]) {
          return true;
        }
        break;
      default:
        break;
    }
    for (const auto& a : e.args) {
      if (delivered(*a)) return true;
    }
    return false;
  }

 private:
  const CheckedProgram& prog_;
  std::vector<bool> fun_raise_;
  std::vector<bool> fun_sends_;
};

// ---------------------------------------------------------------------------
// Linear duplication.
// ---------------------------------------------------------------------------

class DuplicationAnalysis {
 public:
  explicit DuplicationAnalysis(const CheckedProgram& prog) : prog_(prog) {
    fun_max_sends_.resize(prog.functions.size(), 0);
    for (std::size_t i = 0; i < prog.functions.size(); ++i) {
      fun_max_sends_[i] = max_sends(*prog.functions[i]->body);
    }
  }

  /// Max packets emitted along any single execution path (saturating at 2).
  int max_sends(const Expr& e) {
    using K = Expr::Kind;
    auto cap = [](int v) { return std::min(v, 2); };
    switch (e.kind) {
      case K::kSend: {
        int self = (e.send_kind == SendKind::kOnRemote ||
                    e.send_kind == SendKind::kOnNeighbor)
                       ? 1
                       : 0;
        int inner = e.args.empty() ? 0 : max_sends(*e.args[0]);
        return cap(self + inner);
      }
      case K::kIf:
        return cap(max_sends(*e.args[0]) +
                   std::max(max_sends(*e.args[1]), max_sends(*e.args[2])));
      case K::kTry:
        // Conservative: sends before the raise plus the handler's.
        return cap(max_sends(*e.args[0]) + max_sends(*e.args[1]));
      case K::kCall: {
        int n = 0;
        for (const auto& a : e.args) n += max_sends(*a);
        if (!is_primitive_call(e.call_target)) {
          n += fun_max_sends_[static_cast<std::size_t>(user_fun_index(e.call_target))];
        }
        return cap(n);
      }
      default: {
        int n = 0;
        for (const auto& a : e.args) n += max_sends(*a);
        return cap(n);
      }
    }
  }

 private:
  const CheckedProgram& prog_;
  std::vector<int> fun_max_sends_;
};

// ---------------------------------------------------------------------------
// Bounded per-packet cost.
// ---------------------------------------------------------------------------

class CostAnalysis {
 public:
  explicit CostAnalysis(const CheckedProgram& prog) : prog_(prog) {
    fun_cost_.resize(prog.functions.size(), 0);
    for (std::size_t i = 0; i < prog.functions.size(); ++i) {
      fun_cost_[i] = cost(*prog.functions[i]->body);
    }
  }

  /// Worst-case abstract work along any single execution path: every AST node
  /// costs 1 (interpreter step), primitives add their declared weight,
  /// emissions add a fixed routing charge. Max over if-branches, sum over
  /// sequences; try conservatively pays protected part plus handler. Calls
  /// inline the callee's precomputed cost — the call graph is a DAG, so this
  /// mirrors DuplicationAnalysis and terminates.
  int cost(const Expr& e) {
    using K = Expr::Kind;
    // Saturate well past any budget so deep sums cannot overflow int.
    auto cap = [](long long v) {
      return static_cast<int>(std::min<long long>(v, 1 << 28));
    };
    long long n = 1;
    switch (e.kind) {
      case K::kIf:
        return cap(1 + cost(*e.args[0]) +
                   std::max(cost(*e.args[1]), cost(*e.args[2])));
      case K::kTry:
        return cap(1 + cost(*e.args[0]) + cost(*e.args[1]));
      case K::kCall: {
        for (const auto& a : e.args) n += cost(*a);
        if (is_primitive_call(e.call_target)) {
          n += Primitives::instance().at(e.call_target).cost;
        } else {
          n += fun_cost_[static_cast<std::size_t>(user_fun_index(e.call_target))];
        }
        return cap(n);
      }
      case K::kSend: {
        constexpr int kEmitCost = 4;  // route lookup + enqueue
        n += e.send_kind == SendKind::kDrop ? 0 : kEmitCost;
        for (const auto& a : e.args) n += cost(*a);
        return cap(n);
      }
      default: {
        for (const auto& a : e.args) n += cost(*a);
        return cap(n);
      }
    }
  }

 private:
  const CheckedProgram& prog_;
  std::vector<int> fun_cost_;
};

}  // namespace

AnalysisReport analyze(const CheckedProgram& prog) {
  auto t0 = std::chrono::steady_clock::now();
  AnalysisReport report;

  // 1. Local termination: structural — no loops in the grammar, and the type
  // checker only binds calls to earlier definitions, so this is by
  // construction. (A defensive re-check of the call encoding costs nothing.)
  report.local_termination = true;

  // Collect send sites per channel once.
  AbsScanner scanner(prog);
  std::vector<std::vector<SendSite>> channel_sends;
  channel_sends.reserve(prog.channels.size());
  for (const ChannelDef* c : prog.channels) {
    channel_sends.push_back(scanner.scan_channel(*c));
  }

  // 2. Global termination.
  TerminationResult term = check_global_termination(prog, channel_sends);
  report.global_termination = term.ok;
  report.global_termination_detail = term.detail;
  report.states_explored = term.states;

  // 3. Guaranteed delivery.
  DeliveryAnalysis delivery(prog);
  report.guaranteed_delivery = true;
  for (const ChannelDef* c : prog.channels) {
    if (delivery.may_raise(*c->body)) {
      report.guaranteed_delivery = false;
      report.delivery_detail = "channel '" + c->name + "' may raise an unhandled exception";
      break;
    }
    if (!delivery.delivered(*c->body)) {
      report.guaranteed_delivery = false;
      report.delivery_detail =
          "channel '" + c->name + "' has an execution path that drops the packet";
      break;
    }
  }
  if (report.guaranteed_delivery) {
    report.delivery_detail = "all paths forward or deliver; all exceptions handled";
  }

  // 4. Linear duplication: no duplicating channel may sit on a cycle of the
  // channel send-graph. Reachability is computed as a boolean fix-point (the
  // paper: at most 2^c iterations; in practice a handful).
  DuplicationAnalysis dup(prog);
  std::size_t n = prog.channels.size();
  std::vector<int> multi(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    multi[i] = dup.max_sends(*prog.channels[i]->body) >= 2;
  }
  // edges[i][j]: channel i can emit a packet handled by channel j.
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (const SendSite& s : channel_sends[i]) {
      auto it = prog.channels_by_name.find(s.target_channel);
      if (it == prog.channels_by_name.end()) continue;
      for (int j : it->second) reach[i][static_cast<std::size_t>(j)] = true;
    }
  }
  // Transitive closure as a fix-point.
  int iterations = 0;
  for (bool changed = true; changed;) {
    changed = false;
    ++iterations;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (!reach[i][j]) continue;
        for (std::size_t k = 0; k < n; ++k) {
          if (reach[j][k] && !reach[i][k]) {
            reach[i][k] = true;
            changed = true;
          }
        }
      }
    }
  }
  report.fixpoint_iterations = iterations;
  report.linear_duplication = true;
  report.duplication_detail = "no duplicating channel on a send cycle";
  for (std::size_t i = 0; i < n; ++i) {
    if (multi[i] && reach[i][i]) {
      report.linear_duplication = false;
      report.duplication_detail = "channel '" + prog.channels[i]->name +
                                  "' duplicates packets inside a send cycle";
      break;
    }
  }

  // 5. Bounded per-packet cost: the heaviest channel body must fit the budget.
  CostAnalysis coster(prog);
  report.max_channel_cost = 0;
  std::string costliest;
  for (const ChannelDef* c : prog.channels) {
    int units = coster.cost(*c->body);
    if (units > report.max_channel_cost) {
      report.max_channel_cost = units;
      costliest = c->name;
    }
  }
  report.cost_bounded = report.max_channel_cost <= AnalysisReport::kCostBudget;
  if (prog.channels.empty()) {
    report.cost_detail = "no channels";
  } else {
    report.cost_detail = "channel '" + costliest + "' worst-case " +
                         std::to_string(report.max_channel_cost) + " units (" +
                         (report.cost_bounded ? "within" : "exceeds") +
                         " budget " + std::to_string(AnalysisReport::kCostBudget) +
                         ")";
  }

  // The verifier-cost story (§2.1): every analysis run reports its wall time
  // and explored-state count into the registry.
  obs::MetricsRegistry& reg = obs::registry();
  reg.histogram("planp/verify/analyze_us")
      .observe(std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - t0)
                   .count());
  reg.counter("planp/verify/runs").inc();
  reg.counter("planp/verify/states_explored")
      .inc(static_cast<std::uint64_t>(report.states_explored));
  if (!report.accepted()) reg.counter("planp/verify/gate_rejections").inc();

  return report;
}

}  // namespace asp::planp
