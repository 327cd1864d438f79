#include "planp/value.hpp"

#include "mem/pool.hpp"
#include "mem/shard.hpp"

namespace asp::planp {

namespace {

/// On recycle under poison mode, scribble sentinel ints over the slots so a
/// stale reference into recycled tuple storage reads "POIS" instead of a
/// plausible value.
struct TuplePoison {
  void operator()(std::vector<Value>& v) const {
    for (Value& e : v) e = Value::of_int(mem::kPoisonInt);
  }
};

using TuplePool = mem::VecPool<Value, TuplePoison>;

// Shard-local slot: every shard thread decodes tuples, so each gets its own
// instance (leaked with its ShardPools); a tuple released on a foreign shard
// — or during static destruction — rides the remote-free list back to its
// home instance.
TuplePool& tuple_pool() {
  return mem::slot_pool<TuplePool>("tuple", mem::AllocTag::kTuple);
}

/// Rehydrate a Scalar slot as a full Value (no heap — all alternatives are
/// by-value reps).
Value from_scalar(const Scalar& s) {
  return std::visit([](const auto& x) { return Value{Value::Rep{x}}; }, s);
}

/// The Scalar for a Value, or nullopt if its shape doesn't fit inline.
std::optional<Scalar> to_scalar(const Value& v) {
  return std::visit(
      [](const auto& x) -> std::optional<Scalar> {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, UnitVal> || std::is_same_v<T, std::int64_t> ||
                      std::is_same_v<T, bool> || std::is_same_v<T, char> ||
                      std::is_same_v<T, asp::net::Ipv4Addr>) {
          return Scalar{x};
        } else {
          return std::nullopt;
        }
      },
      v.rep());
}

}  // namespace

Value Value::of_tuple(std::vector<Value> elems) {
  // Adopt the caller's storage into a pooled node: the vector itself joins
  // the freelist (and recycles its capacity) when the last reference drops.
  TupleRep t = tuple_pool().acquire(0);
  *t = std::move(elems);
  return of_tuple_rep(std::move(t));
}

Value Value::of_pair(Value a, Value b) {
  if (auto sa = to_scalar(a)) {
    if (auto sb = to_scalar(b)) {
      return Value{Rep{ScalarPair{std::move(*sa), std::move(*sb)}}};
    }
  }
  TupleRep t = make_tuple_storage(2);
  t->push_back(std::move(a));
  t->push_back(std::move(b));
  return of_tuple_rep(std::move(t));
}

TupleRep Value::make_tuple_storage(std::size_t n) { return tuple_pool().acquire(n); }

const std::vector<Value>& Value::as_tuple() const {
  if (const TupleRep* t = std::get_if<TupleRep>(&rep_)) return **t;
  if (const ScalarPair* p = std::get_if<ScalarPair>(&rep_)) {
    // Lazy promotion to the vector rep; logically const (observable tuple
    // value is unchanged), same discipline as the mutable hash_cache_.
    TupleRep t = make_tuple_storage(2);
    t->push_back(from_scalar(p->first));
    t->push_back(from_scalar(p->second));
    const_cast<Value*>(this)->rep_ = Rep{std::move(t)};
    return *std::get<TupleRep>(rep_);
  }
  throw EvalBug{"value is not a tuple"};
}

std::size_t Value::tuple_size() const {
  if (const TupleRep* t = std::get_if<TupleRep>(&rep_)) return (*t)->size();
  if (std::holds_alternative<ScalarPair>(rep_)) return 2;
  throw EvalBug{"value is not a tuple"};
}

Value Value::tuple_at(std::size_t i) const {
  if (const TupleRep* t = std::get_if<TupleRep>(&rep_)) return (**t)[i];
  if (const ScalarPair* p = std::get_if<ScalarPair>(&rep_)) {
    return from_scalar(i == 0 ? p->first : p->second);
  }
  throw EvalBug{"value is not a tuple"};
}

bool Value::equals(const Value& o) const {
  // Cross-rep tuple equality: an inline ScalarPair and a TupleRep holding
  // the same elements are the same tuple.
  if (rep_.index() != o.rep_.index() && is_tuple() && o.is_tuple()) {
    if (tuple_size() != o.tuple_size()) return false;
    for (std::size_t i = 0; i < tuple_size(); ++i) {
      if (!tuple_at(i).equals(o.tuple_at(i))) return false;
    }
    return true;
  }
  if (rep_.index() != o.rep_.index()) return false;
  return std::visit(
      [&o](const auto& a) -> bool {
        using T = std::decay_t<decltype(a)>;
        const T& b = std::get<T>(o.rep_);
        if constexpr (std::is_same_v<T, UnitVal>) {
          return true;
        } else if constexpr (std::is_same_v<T, std::int64_t> ||
                             std::is_same_v<T, bool> || std::is_same_v<T, char> ||
                             std::is_same_v<T, std::string>) {
          return a == b;
        } else if constexpr (std::is_same_v<T, asp::net::Ipv4Addr>) {
          return a == b;
        } else if constexpr (std::is_same_v<T, Blob>) {
          return a == b || (a && b && *a == *b);
        } else if constexpr (std::is_same_v<T, asp::net::IpHeader>) {
          return a.src == b.src && a.dst == b.dst && a.proto == b.proto &&
                 a.ttl == b.ttl && a.tos == b.tos;
        } else if constexpr (std::is_same_v<T, asp::net::TcpHeader>) {
          return a.sport == b.sport && a.dport == b.dport && a.seq == b.seq &&
                 a.ack == b.ack && a.flags == b.flags && a.wnd == b.wnd;
        } else if constexpr (std::is_same_v<T, asp::net::UdpHeader>) {
          return a.sport == b.sport && a.dport == b.dport;
        } else if constexpr (std::is_same_v<T, TupleRep>) {
          if (a->size() != b->size()) return false;
          for (std::size_t i = 0; i < a->size(); ++i) {
            if (!(*a)[i].equals((*b)[i])) return false;
          }
          return true;
        } else if constexpr (std::is_same_v<T, TableRef>) {
          return a == b;  // identity
        } else if constexpr (std::is_same_v<T, ChanVal>) {
          return a == b;
        } else if constexpr (std::is_same_v<T, ScalarPair>) {
          return a.first == b.first && a.second == b.second;
        }
      },
      rep_);
}

namespace {
std::size_t mix(std::size_t h, std::size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}
}  // namespace

std::size_t Value::hash() const {
  // Only the aggregates are worth memoizing (and they are immutable, so the
  // memo can never go stale); scalars hash in a few cycles.
  if (std::holds_alternative<TupleRep>(rep_) || std::holds_alternative<Blob>(rep_)) {
    if (hash_cache_ == 0) {
      std::size_t h = hash_uncached();
      hash_cache_ = h == 0 ? 1 : h;
    }
    return hash_cache_;
  }
  return hash_uncached();
}

std::size_t Value::hash_uncached() const {
  return std::visit(
      [](const auto& a) -> std::size_t {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, UnitVal>) {
          return 0x55;
        } else if constexpr (std::is_same_v<T, std::int64_t>) {
          return std::hash<std::int64_t>{}(a);
        } else if constexpr (std::is_same_v<T, bool>) {
          return a ? 3 : 7;
        } else if constexpr (std::is_same_v<T, char>) {
          return std::hash<char>{}(a);
        } else if constexpr (std::is_same_v<T, std::string>) {
          return std::hash<std::string>{}(a);
        } else if constexpr (std::is_same_v<T, asp::net::Ipv4Addr>) {
          return std::hash<asp::net::Ipv4Addr>{}(a);
        } else if constexpr (std::is_same_v<T, Blob>) {
          // Content hash, consistent with equals() comparing contents.
          std::size_t h = 0xB10B;
          for (std::uint8_t byte : *a) h = mix(h, byte);
          return h;
        } else if constexpr (std::is_same_v<T, TupleRep>) {
          std::size_t h = 0xABCD;
          for (const Value& v : *a) h = mix(h, v.hash());
          return h;
        } else if constexpr (std::is_same_v<T, ScalarPair>) {
          // Must match the TupleRep chain exactly: cross-rep equal tuples
          // are interchangeable as table keys.
          std::size_t h = 0xABCD;
          h = mix(h, from_scalar(a.first).hash());
          h = mix(h, from_scalar(a.second).hash());
          return h;
        } else {
          throw EvalBug{"value is not hashable"};
        }
      },
      rep_);
}

std::string Value::str() const {
  return std::visit(
      [](const auto& a) -> std::string {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, UnitVal>) {
          return "()";
        } else if constexpr (std::is_same_v<T, std::int64_t>) {
          return std::to_string(a);
        } else if constexpr (std::is_same_v<T, bool>) {
          return a ? "true" : "false";
        } else if constexpr (std::is_same_v<T, char>) {
          return std::string(1, a);
        } else if constexpr (std::is_same_v<T, std::string>) {
          return a;
        } else if constexpr (std::is_same_v<T, asp::net::Ipv4Addr>) {
          return a.str();
        } else if constexpr (std::is_same_v<T, Blob>) {
          return "<blob:" + std::to_string(a ? a->size() : 0) + ">";
        } else if constexpr (std::is_same_v<T, asp::net::IpHeader>) {
          return "<ip " + a.src.str() + "->" + a.dst.str() + ">";
        } else if constexpr (std::is_same_v<T, asp::net::TcpHeader>) {
          return "<tcp " + std::to_string(a.sport) + "->" + std::to_string(a.dport) + ">";
        } else if constexpr (std::is_same_v<T, asp::net::UdpHeader>) {
          return "<udp " + std::to_string(a.sport) + "->" + std::to_string(a.dport) + ">";
        } else if constexpr (std::is_same_v<T, TupleRep>) {
          std::string s = "(";
          for (std::size_t i = 0; i < a->size(); ++i) {
            if (i > 0) s += ", ";
            s += (*a)[i].str();
          }
          return s + ")";
        } else if constexpr (std::is_same_v<T, TableRef>) {
          return "<hash_table:" + std::to_string(a ? a->size() : 0) + ">";
        } else if constexpr (std::is_same_v<T, ChanVal>) {
          return "<chan " + a.name + ">";
        } else if constexpr (std::is_same_v<T, ScalarPair>) {
          return "(" + from_scalar(a.first).str() + ", " + from_scalar(a.second).str() + ")";
        }
      },
      rep_);
}

void freeze(Value& v) {
  if (const ScalarPair* p = std::get_if<ScalarPair>(&v.rep())) {
    v = Value::of_tuple({from_scalar(p->first), from_scalar(p->second)});
  }
  const bool aggregate = std::holds_alternative<TupleRep>(v.rep()) ||
                         std::holds_alternative<Blob>(v.rep());
  if (const TupleRep* t = std::get_if<TupleRep>(&v.rep())) {
    for (Value& e : **t) freeze(e);
  }
  if (aggregate) {
    try {
      v.hash();
    } catch (const EvalBug&) {
      // Not a key type (a tuple holding a table, say): hash() will throw the
      // same way at run time, writing nothing.
    }
  }
}

Value default_value(const TypePtr& t) {
  switch (t->kind()) {
    case Type::Kind::kInt: return Value::of_int(0);
    case Type::Kind::kBool: return Value::of_bool(false);
    case Type::Kind::kChar: return Value::of_char('\0');
    case Type::Kind::kString: return Value::of_string("");
    case Type::Kind::kUnit: return Value::unit();
    case Type::Kind::kHost: return Value::of_host({});
    case Type::Kind::kBlob: return Value::of_blob(std::vector<std::uint8_t>{});
    case Type::Kind::kIp: return Value::of_ip({});
    case Type::Kind::kTcp: return Value::of_tcp({});
    case Type::Kind::kUdp: return Value::of_udp({});
    case Type::Kind::kTuple: {
      std::vector<Value> elems;
      elems.reserve(t->args().size());
      for (const auto& e : t->args()) elems.push_back(default_value(e));
      return Value::of_tuple(std::move(elems));
    }
    case Type::Kind::kTable:
      return Value::of_table(std::make_shared<HashTable>());
    case Type::Kind::kChan:
      return Value::of_chan("");
    case Type::Kind::kVar:
    case Type::Kind::kBottom:
      break;  // no runtime values of these kinds
  }
  return Value::unit();
}

}  // namespace asp::planp
