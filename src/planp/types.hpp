// PLAN-P type representation.
//
// The language is monomorphic: base types, tuple types (`ip*tcp*blob`) and
// hash tables (`(host, int) hash_table`). Types are hash-consed-ish via
// shared_ptr; equality is structural.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace asp::planp {

class Type;
using TypePtr = std::shared_ptr<const Type>;

class Type {
 public:
  enum class Kind {
    kInt,
    kBool,
    kChar,
    kString,
    kUnit,
    kHost,
    kBlob,
    kIp,    // IP header
    kTcp,   // TCP header
    kUdp,   // UDP header
    kTuple,
    kTable,  // args = {key, value}
    kVar,    // type variable in primitive signatures ('a in tableGet)
    kBottom, // type of `raise`: compatible with everything
  };

  explicit Type(Kind k, std::vector<TypePtr> args = {}, int var_id = -1)
      : kind_(k), args_(std::move(args)), var_id_(var_id) {}

  Kind kind() const { return kind_; }
  const std::vector<TypePtr>& args() const { return args_; }
  int var_id() const { return var_id_; }

  bool is(Kind k) const { return kind_ == k; }
  bool is_tuple() const { return kind_ == Kind::kTuple; }

  /// Structural equality.
  bool equals(const Type& o) const;

  /// "int", "ip*tcp*blob", "(host, int) hash_table", ...
  std::string str() const;

  // Shared singletons for base types.
  static TypePtr Int();
  static TypePtr Bool();
  static TypePtr Char();
  static TypePtr String();
  static TypePtr Unit();
  static TypePtr Host();
  static TypePtr Blob();
  static TypePtr Ip();
  static TypePtr Tcp();
  static TypePtr Udp();
  static TypePtr Bottom();
  static TypePtr Tuple(std::vector<TypePtr> elems);
  static TypePtr Table(TypePtr key, TypePtr value);
  static TypePtr Var(int id);

 private:
  Kind kind_;
  std::vector<TypePtr> args_;
  int var_id_ = -1;
};

inline bool same_type(const TypePtr& a, const TypePtr& b) {
  return a && b && a->equals(*b);
}

/// True for types usable as hash-table keys (scalar types and tuples of them).
bool is_key_type(const TypePtr& t);

/// True for types with a defined equality (`=`, `<>`).
bool is_equality_type(const TypePtr& t);

/// True if `t` is a legal channel packet type: a tuple starting with `ip`,
/// optionally followed by `tcp`/`udp`, then payload fields (blob must be last;
/// scalar payload fields `char`/`int`/`bool`/`string` may precede it).
bool is_packet_type(const TypePtr& t);

}  // namespace asp::planp
