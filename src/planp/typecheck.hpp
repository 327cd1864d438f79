// PLAN-P type checker.
//
// Monomorphic and bidirectional: declared types on `val` bindings, function
// signatures and channel parameters are propagated inward, which is what lets
// polymorphic-looking primitives (mkTable, tableGet, ...) resolve without a
// full inference engine. The checker also:
//   * resolves calls (user functions take precedence over primitives),
//   * enforces the no-recursion rule (a function may only call functions
//     defined before it — the basis of the local-termination guarantee),
//   * assigns frame slots to locals and indices to globals for the compiler,
//   * validates channel packet types and overloaded channels, and compiles
//     each channel's packet type into its decode plan.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "planp/ast.hpp"
#include "planp/netapi.hpp"

namespace asp::planp {

/// A type-checked program with resolved references. Produced by typecheck();
/// consumed by the analyses, the interpreter and the compiler.
struct CheckedProgram {
  Program program;

  // Pointers into program.decls, in declaration order.
  std::vector<ValDef*> globals;
  std::vector<FunDef*> functions;
  std::vector<ChannelDef*> channels;
  /// Per channel, its packet type's decode plan: the one copy the runtime's
  /// match-action table and both engines read.
  std::vector<DecodePlan> plans;

  /// Channel-name -> indices into `channels` (overloaded channels share one).
  std::unordered_map<std::string, std::vector<int>> channels_by_name;

  const ChannelDef* channel(int idx) const { return channels.at(idx); }
};

/// Checks `p`, filling in Expr::type / call_target / var_slot annotations.
/// Throws PlanPError with a source location on any type error.
CheckedProgram typecheck(Program p);

/// Encoding of Expr::call_target: >= 0 is a primitive index,
/// < 0 is a user function: index = -call_target - 1.
inline bool is_primitive_call(int call_target) { return call_target >= 0; }
inline int user_fun_index(int call_target) { return -call_target - 1; }
inline int encode_user_fun(int fun_index) { return -fun_index - 1; }

/// Encoding of Expr::var_slot: >= 0 is a local frame slot,
/// < 0 is a global: index = -var_slot - 1.
inline bool is_local_var(int var_slot) { return var_slot >= 0; }
inline int global_index(int var_slot) { return -var_slot - 1; }
inline int encode_global(int g) { return -g - 1; }

}  // namespace asp::planp
