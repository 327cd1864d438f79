// PLAN-P runtime values.
//
// Values are cheap to copy: scalars by value, aggregates (blobs, tuples,
// hash tables) by shared_ptr. Hash tables are the language's only mutable
// data structure (the paper's protocols update tables in place, e.g. the
// HTTP gateway's connection table).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "net/addr.hpp"
#include "net/packet.hpp"
#include "planp/types.hpp"

namespace asp::planp {

class Value;
class HashTable;

struct UnitVal {
  friend bool operator==(UnitVal, UnitVal) { return true; }
};

/// Same rep as asp::net::Buffer: a blob Value and a Packet payload can alias
/// one buffer, which is what makes packet decode zero-copy.
using Blob = asp::net::Buffer;
using TupleRep = std::shared_ptr<std::vector<Value>>;
using TableRef = std::shared_ptr<HashTable>;

/// PLAN-P exception, thrown by `raise` and by primitives (e.g. a table lookup
/// miss raises "NotFound"). Caught by `try ... with`.
struct PlanPException {
  std::string name;
};

/// Internal error: an engine saw a value of the wrong shape. The type checker
/// makes this unreachable for checked programs; it guards engine bugs.
struct EvalBug {
  std::string message;
};

class Value {
 public:
  using Rep = std::variant<UnitVal, std::int64_t, bool, char, std::string,
                           asp::net::Ipv4Addr, Blob, asp::net::IpHeader,
                           asp::net::TcpHeader, asp::net::UdpHeader, TupleRep,
                           TableRef>;

  Value() : rep_(UnitVal{}) {}
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  static Value unit() { return Value{}; }
  static Value of_int(std::int64_t v) { return Value{Rep{v}}; }
  static Value of_bool(bool v) { return Value{Rep{v}}; }
  static Value of_char(char v) { return Value{Rep{v}}; }
  static Value of_string(std::string v) { return Value{Rep{std::move(v)}}; }
  static Value of_host(asp::net::Ipv4Addr v) { return Value{Rep{v}}; }
  static Value of_blob(std::vector<std::uint8_t> v) {
    return Value{Rep{asp::net::make_buffer(std::move(v))}};
  }
  static Value of_blob_shared(Blob b) { return Value{Rep{std::move(b)}}; }
  static Value of_ip(asp::net::IpHeader h) { return Value{Rep{h}}; }
  static Value of_tcp(asp::net::TcpHeader h) { return Value{Rep{h}}; }
  static Value of_udp(asp::net::UdpHeader h) { return Value{Rep{h}}; }
  /// Tuple constructor: the element vector's storage is adopted into the
  /// tuple pool, so it recycles when the last reference drops.
  static Value of_tuple(std::vector<Value> elems);

  /// Empty pooled tuple storage with capacity >= `n`: build a tuple without
  /// touching the allocator by push_back into this, then of_tuple_rep. In
  /// steady state the storage comes off the tuple pool's freelist.
  static TupleRep make_tuple_storage(std::size_t n);
  static Value of_tuple_rep(TupleRep t) { return Value{Rep{std::move(t)}}; }

  static Value of_table(TableRef t) { return Value{Rep{std::move(t)}}; }

  const Rep& rep() const { return rep_; }

  bool is_unit() const { return std::holds_alternative<UnitVal>(rep_); }

  std::int64_t as_int() const { return get<std::int64_t>("int"); }
  bool as_bool() const { return get<bool>("bool"); }
  char as_char() const { return get<char>("char"); }
  const std::string& as_string() const { return get<std::string>("string"); }
  asp::net::Ipv4Addr as_host() const { return get<asp::net::Ipv4Addr>("host"); }
  const Blob& as_blob() const { return get<Blob>("blob"); }
  const asp::net::IpHeader& as_ip() const { return get<asp::net::IpHeader>("ip"); }
  const asp::net::TcpHeader& as_tcp() const { return get<asp::net::TcpHeader>("tcp"); }
  const asp::net::UdpHeader& as_udp() const { return get<asp::net::UdpHeader>("udp"); }
  /// The elements of a tuple.
  const std::vector<Value>& as_tuple() const { return *get<TupleRep>("tuple"); }
  const TableRef& as_table() const { return get<TableRef>("hash_table"); }

  /// Structural equality for equality types; identity for tables.
  bool equals(const Value& o) const;

  /// Hash consistent with equals (key types only; others throw EvalBug).
  std::size_t hash() const;

  /// Display form, as the paper's `print` primitive would show it.
  std::string str() const;

 private:
  template <typename T>
  const T& get(const char* what) const {
    if (const T* v = std::get_if<T>(&rep_)) return *v;
    throw EvalBug{std::string("value is not a ") + what};
  }

  Rep rep_;
};

// No const member function writes to a Value, so a compiled program's
// constants can be read by every shard at once. The largest alternative is a
// 32-byte std::string.
static_assert(sizeof(Value) == 40);

/// The `(k, v) hash_table` runtime object: mutable, identity semantics.
class HashTable {
 public:
  explicit HashTable(std::size_t buckets_hint = 16) { map_.reserve(buckets_hint); }

  /// The value stored under `key`, or null; valid until the table changes.
  const Value* get(const Value& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }
  void set(const Value& key, Value v) { map_[key] = std::move(v); }
  bool contains(const Value& key) const { return map_.count(key) > 0; }
  bool remove(const Value& key) { return map_.erase(key) > 0; }
  std::size_t size() const { return map_.size(); }

 private:
  struct Hash {
    std::size_t operator()(const Value& v) const { return v.hash(); }
  };
  struct Eq {
    bool operator()(const Value& a, const Value& b) const { return a.equals(b); }
  };
  std::unordered_map<Value, Value, Hash, Eq> map_;
};

/// Deep default value for a type (used for channels without initstate).
Value default_value(const TypePtr& t);

}  // namespace asp::planp
