// PLAN-P runtime values.
//
// Values are cheap to copy: scalars by value, aggregates (blobs, tuples,
// hash tables) by shared_ptr. Hash tables are the language's only mutable
// data structure (the paper's protocols update tables in place, e.g. the
// HTTP gateway's connection table).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
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

/// A channel name used as a value.
struct ChanVal {
  std::string name;
  friend bool operator==(const ChanVal& a, const ChanVal& b) { return a.name == b.name; }
};

/// Same rep as asp::net::Buffer: a blob Value and a Packet payload can alias
/// one buffer, which is what makes packet decode zero-copy.
using Blob = asp::net::Buffer;
using TupleRep = std::shared_ptr<std::vector<Value>>;
using TableRef = std::shared_ptr<HashTable>;

/// The scalar subset of Value shapes: representable without heap references,
/// so a pair of them can live inline in a Value (see ScalarPair).
using Scalar = std::variant<UnitVal, std::int64_t, bool, char, asp::net::Ipv4Addr>;

/// Inline two-element tuple of scalars — no shared_ptr<vector>, no heap.
/// Header/field pairs like (host, int) dominate ASP tuple traffic (connection
/// table keys, (state, channel-state) results), so Value::of_pair stores them
/// in place. Indistinguishable from an equivalent TupleRep tuple through
/// equals()/hash()/str()/tuple_at(); as_tuple() promotes lazily when a caller
/// really needs the vector view.
struct ScalarPair {
  Scalar first;
  Scalar second;
};

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
                           TableRef, ChanVal, ScalarPair>;

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
  /// General tuple constructor: the element vector's storage is adopted into
  /// the tuple pool, so it recycles when the last reference drops. Never
  /// inlines — engines use of_pair on the hot path for that.
  static Value of_tuple(std::vector<Value> elems);

  /// Two-element tuple, stored inline (ScalarPair) when both elements are
  /// scalars; falls back to a pooled TupleRep otherwise.
  static Value of_pair(Value a, Value b);

  /// Empty pooled tuple storage with capacity >= `n`: build a tuple without
  /// touching the allocator by push_back into this, then of_tuple_rep. In
  /// steady state the storage comes off the tuple pool's freelist.
  static TupleRep make_tuple_storage(std::size_t n);
  static Value of_tuple_rep(TupleRep t) { return Value{Rep{std::move(t)}}; }

  static Value of_table(TableRef t) { return Value{Rep{std::move(t)}}; }
  static Value of_chan(std::string name) { return Value{Rep{ChanVal{std::move(name)}}}; }

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
  /// Vector view of a tuple. An inline ScalarPair is promoted to a pooled
  /// TupleRep first (a logically-const rep change, like hash_cache_) — hot
  /// paths should prefer tuple_size()/tuple_at(), which never promote.
  const std::vector<Value>& as_tuple() const;
  const TableRef& as_table() const { return get<TableRef>("hash_table"); }
  const ChanVal& as_chan() const { return get<ChanVal>("chan"); }

  /// Tuple accessors that work on both reps without promotion.
  bool is_tuple() const {
    return std::holds_alternative<TupleRep>(rep_) ||
           std::holds_alternative<ScalarPair>(rep_);
  }
  std::size_t tuple_size() const;
  Value tuple_at(std::size_t i) const;

  /// Structural equality for equality types; identity for tables.
  bool equals(const Value& o) const;

  /// Hash consistent with equals (key types only; others throw EvalBug).
  /// Aggregate hashes (blob contents, tuples) are memoized per Value: table
  /// keys built from packets get probed several times per packet (contains /
  /// get / set in the HTTP gateway's connection table), and the aggregates
  /// are immutable, so the walk happens once. The memo is a write through
  /// const; values shared between threads are frozen first (see freeze()).
  std::size_t hash() const;

  /// Display form, as the paper's `print` primitive would show it.
  std::string str() const;

 private:
  template <typename T>
  const T& get(const char* what) const {
    if (const T* v = std::get_if<T>(&rep_)) return *v;
    throw EvalBug{std::string("value is not a ") + what};
  }

  std::size_t hash_uncached() const;

  Rep rep_;
  // Memoized hash() for Blob/TupleRep reps (0 = not yet computed; computed
  // hashes are nudged off 0). Copies carry the memo with them.
  mutable std::size_t hash_cache_ = 0;
};

/// The `(k, v) hash_table` runtime object: mutable, identity semantics.
class HashTable {
 public:
  explicit HashTable(std::size_t buckets_hint = 16) { map_.reserve(buckets_hint); }

  std::optional<Value> get(const Value& key) const {
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
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

/// Prepares `v` to be read by many threads at once, as a compiled program's
/// constants are: every ScalarPair in it becomes a TupleRep (so as_tuple()
/// never promotes in place) and every hashable aggregate gets its hash memo
/// (so hash() never writes one). Afterwards no const member function writes
/// to `v` or to anything it shares.
void freeze(Value& v);

}  // namespace asp::planp
