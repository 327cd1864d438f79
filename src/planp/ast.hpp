// PLAN-P abstract syntax.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "net/addr.hpp"
#include "planp/types.hpp"

namespace asp::planp {

struct Loc {
  int line = 0;
  int col = 0;
  std::string str() const { return std::to_string(line) + ":" + std::to_string(col); }
};

/// Compile-time error in a PLAN-P program (lexing, parsing, typing).
class PlanPError : public std::exception {
 public:
  PlanPError(std::string phase, Loc loc, std::string message)
      : loc_(loc),
        message_(std::move(phase) + " error at " + loc.str() + ": " + message) {}
  const char* what() const noexcept override { return message_.c_str(); }
  Loc loc() const { return loc_; }

 private:
  Loc loc_;
  std::string message_;
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// How a packet leaves a channel (paper §2).
enum class SendKind {
  kOnRemote,    // forward toward the packet's (possibly rewritten) destination
  kOnNeighbor,  // emit on the local segment only
  kDeliver,     // hand to the local application
  kDrop,        // intentionally discard
};

/// Expression node. One struct with a kind tag: every pass (check, analyse,
/// interpret, compile) is a switch over `kind`, which keeps them in one place.
struct Expr {
  enum class Kind {
    kIntLit,
    kBoolLit,
    kCharLit,
    kStringLit,
    kHostLit,
    kUnitLit,
    kVar,
    kLet,    // name/decl_type; args[0]=init, args[1]=body
    kIf,     // args[0]=cond, args[1]=then, args[2]=else
    kSeq,    // args = e1; e2; ...
    kTuple,  // args = elements
    kProj,   // proj_index (1-based); args[0]=tuple
    kCall,   // name=primitive or user function; args=arguments
    kBinOp,  // name = "+", "-", ...; args[0], args[1]
    kUnOp,   // name = "not" | "-"
    kAnd,    // short-circuit; args[0], args[1]
    kOr,
    kRaise,  // str_val = exception name
    kTry,    // args[0]=protected, args[1]=handler
    kSend,   // send_kind; name = channel (OnRemote/OnNeighbor); args[0]=packet
  };

  Kind kind;
  Loc loc;

  std::int64_t int_val = 0;
  bool bool_val = false;
  char char_val = 0;
  std::string str_val;
  asp::net::Ipv4Addr host_val;

  std::string name;     // Var/Let/Call/BinOp/UnOp/Send
  int proj_index = 0;   // Proj (1-based, as in the paper's #n)
  SendKind send_kind = SendKind::kOnRemote;
  std::vector<ExprPtr> args;

  TypePtr decl_type;  // Let annotation
  // Filled in by the type checker:
  TypePtr type;
  int call_target = -1;   // Call: index into resolved primitive overloads, or
                          // ~fun_index for user functions (see typecheck.hpp)
  int var_slot = -1;      // Var/Let: de Bruijn-ish frame slot for compilation
  std::uint32_t chan_tag = 0;  // Send: `name` interned as a net::ChannelTags
                               // id (0 for deliver/drop)

  static ExprPtr make(Kind k, Loc loc) {
    auto e = std::make_unique<Expr>();
    e->kind = k;
    e->loc = loc;
    return e;
  }
};

/// Top-level `val name : t = expr`.
struct ValDef {
  std::string name;
  TypePtr type;
  ExprPtr init;
  Loc loc;
};

/// `fun name(a : t, ...) : t = expr` — non-recursive by construction.
struct FunDef {
  std::string name;
  std::vector<std::pair<std::string, TypePtr>> params;
  TypePtr ret;
  ExprPtr body;
  Loc loc;
  int frame_slots = 0;  // assigned by the type checker
};

/// `channel name(ps : t, ss : t, p : packet-type) [initstate e] is e`.
///
/// The body's value is the pair (new protocol state, new channel state).
struct ChannelDef {
  std::string name;
  std::string ps_name, ss_name, p_name;
  TypePtr ps_type, ss_type, packet_type;
  ExprPtr init_state;  // may be null: state starts as unit/default
  ExprPtr body;
  Loc loc;
  int frame_slots = 0;
};

/// A whole PLAN-P protocol: an ordered list of declarations.
struct Program {
  using Decl = std::variant<ValDef, FunDef, ChannelDef>;
  std::vector<Decl> decls;

  std::vector<const ChannelDef*> channels() const;
  std::vector<const FunDef*> functions() const;
  const FunDef* find_function(const std::string& name) const;

  /// Number of source lines (for the Figure 3 bench).
  int source_lines = 0;
};

/// Pretty-prints an expression. The output re-parses to the same AST
/// (tests assert print-parse round trips).
std::string to_string(const Expr& e);

/// Pretty-prints a whole program in concrete PLAN-P syntax.
std::string to_string(const Program& p);

}  // namespace asp::planp
