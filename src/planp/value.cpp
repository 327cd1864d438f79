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

}  // namespace

Value Value::of_tuple(std::vector<Value> elems) {
  // Adopt the caller's storage into a pooled node: the vector itself joins
  // the freelist (and recycles its capacity) when the last reference drops.
  TupleRep t = tuple_pool().acquire(0);
  *t = std::move(elems);
  return of_tuple_rep(std::move(t));
}

TupleRep Value::make_tuple_storage(std::size_t n) { return tuple_pool().acquire(n); }

bool Value::equals(const Value& o) const {
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
        }
      },
      rep_);
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
    case Type::Kind::kVar:
    case Type::Kind::kBottom:
      break;  // no runtime values of these kinds
  }
  return Value::unit();
}

}  // namespace asp::planp
