#include "planp/primitives.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

#include "planp/cache.hpp"

namespace asp::planp {

namespace {

using Args = std::vector<Value>;

[[noreturn]] void raise(const char* name) { throw PlanPException{name}; }

std::int64_t clamp16(std::int64_t v) {
  return std::clamp<std::int64_t>(v, -32768, 32767);
}

std::int16_t sample16(const std::vector<std::uint8_t>& pcm, std::size_t i) {
  // Little-endian 16-bit samples.
  return static_cast<std::int16_t>(pcm[2 * i] | (pcm[2 * i + 1] << 8));
}

void put16(std::vector<std::uint8_t>& out, std::int16_t s) {
  out.push_back(static_cast<std::uint8_t>(s & 0xFF));
  out.push_back(static_cast<std::uint8_t>((s >> 8) & 0xFF));
}

}  // namespace

std::vector<std::uint8_t> audio_stereo_to_mono16(const std::vector<std::uint8_t>& pcm) {
  std::vector<std::uint8_t> out;
  std::size_t frames = pcm.size() / 4;  // L16 + R16
  out.reserve(frames * 2);
  for (std::size_t f = 0; f < frames; ++f) {
    std::int32_t l = sample16(pcm, 2 * f);
    std::int32_t r = sample16(pcm, 2 * f + 1);
    put16(out, static_cast<std::int16_t>(clamp16((l + r) / 2)));
  }
  return out;
}

std::vector<std::uint8_t> audio_mono_to_stereo16(const std::vector<std::uint8_t>& pcm) {
  std::vector<std::uint8_t> out;
  std::size_t samples = pcm.size() / 2;
  out.reserve(samples * 4);
  for (std::size_t i = 0; i < samples; ++i) {
    std::int16_t s = sample16(pcm, i);
    put16(out, s);
    put16(out, s);
  }
  return out;
}

std::vector<std::uint8_t> audio_16_to_8(const std::vector<std::uint8_t>& pcm) {
  std::vector<std::uint8_t> out;
  std::size_t samples = pcm.size() / 2;
  out.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    // Keep the high byte, biased to unsigned (classic 8-bit PCM).
    out.push_back(static_cast<std::uint8_t>((sample16(pcm, i) >> 8) + 128));
  }
  return out;
}

std::vector<std::uint8_t> audio_8_to_16(const std::vector<std::uint8_t>& pcm) {
  std::vector<std::uint8_t> out;
  out.reserve(pcm.size() * 2);
  for (std::uint8_t b : pcm) {
    put16(out, static_cast<std::int16_t>((static_cast<int>(b) - 128) << 8));
  }
  return out;
}

namespace {

// Shorthand type constructors for signatures.
TypePtr I() { return Type::Int(); }
TypePtr B() { return Type::Bool(); }
TypePtr C() { return Type::Char(); }
TypePtr S() { return Type::String(); }
TypePtr U() { return Type::Unit(); }
TypePtr H() { return Type::Host(); }
TypePtr BL() { return Type::Blob(); }
TypePtr IP() { return Type::Ip(); }
TypePtr TCP() { return Type::Tcp(); }
TypePtr UDP() { return Type::Udp(); }
TypePtr VA() { return Type::Var(0); }
TypePtr VB() { return Type::Var(1); }
TypePtr TAB() { return Type::Table(Type::Var(0), Type::Var(1)); }

// --- typed primitives ----------------------------------------------------------
// A typed primitive is one C++ function over C++ types. Typed<F> derives from
// that one definition its PLAN-P signature, the boxed entry the interpreter
// calls and the typed entry the JIT calls on its frame. Conv<T> says how a
// C++ type maps to a PLAN-P type, a boxed Value and a frame slot.
template <class T>
struct Conv;
template <>
struct Conv<std::int64_t> {
  static TypePtr type() { return I(); }
  static std::int64_t get(const Value& v) { return v.as_int(); }
  static std::int64_t get(TypedFrame f, std::int32_t o) { return f.r[o]; }
  static Value box(std::int64_t x) { return Value::of_int(x); }
  static void put(TypedFrame f, std::int32_t o, std::int64_t x) { f.r[o] = x; }
};
template <>
struct Conv<bool> {
  static TypePtr type() { return B(); }
  static bool get(const Value& v) { return v.as_bool(); }
  static bool get(TypedFrame f, std::int32_t o) { return f.r[o] != 0; }
  static Value box(bool x) { return Value::of_bool(x); }
  static void put(TypedFrame f, std::int32_t o, bool x) { f.r[o] = x ? 1 : 0; }
};
template <>
struct Conv<char> {
  static TypePtr type() { return C(); }
  static char get(const Value& v) { return v.as_char(); }
  static char get(TypedFrame f, std::int32_t o) { return static_cast<char>(f.r[o]); }
  static Value box(char x) { return Value::of_char(x); }
  static void put(TypedFrame f, std::int32_t o, char x) { f.r[o] = x; }
};
template <>
struct Conv<net::Ipv4Addr> {
  static TypePtr type() { return H(); }
  static net::Ipv4Addr get(const Value& v) { return v.as_host(); }
  static net::Ipv4Addr get(TypedFrame f, std::int32_t o) {
    return net::Ipv4Addr(static_cast<std::uint32_t>(f.r[o]));
  }
  static Value box(net::Ipv4Addr x) { return Value::of_host(x); }
  static void put(TypedFrame f, std::int32_t o, net::Ipv4Addr x) { f.r[o] = x.bits(); }
};
template <class Hdr, TypePtr (*T)(), const Hdr& (Value::*As)() const,
          Value (*Of)(Hdr)>
struct HeaderConv {
  static TypePtr type() { return T(); }
  static const Hdr& get(const Value& v) { return (v.*As)(); }
  static Hdr get(TypedFrame f, std::int32_t o) { return load_header<Hdr>(f.r + o); }
  static Value box(const Hdr& x) { return Of(x); }
  static void put(TypedFrame f, std::int32_t o, const Hdr& x) { store_header(f.r + o, x); }
};
template <>
struct Conv<net::IpHeader>
    : HeaderConv<net::IpHeader, IP, &Value::as_ip, &Value::of_ip> {};
template <>
struct Conv<net::TcpHeader>
    : HeaderConv<net::TcpHeader, TCP, &Value::as_tcp, &Value::of_tcp> {};
template <>
struct Conv<net::UdpHeader>
    : HeaderConv<net::UdpHeader, UDP, &Value::as_udp, &Value::of_udp> {};
template <>
struct Conv<Blob> {
  static TypePtr type() { return BL(); }
  static const Blob& get(const Value& v) { return v.as_blob(); }
  static const Blob& get(TypedFrame f, std::int32_t o) { return f.v[o].as_blob(); }
  static Value box(Blob x) { return Value::of_blob_shared(std::move(x)); }
  static void put(TypedFrame f, std::int32_t o, Blob x) {
    f.v[o] = Value::of_blob_shared(std::move(x));
  }
};
template <>
struct Conv<TableRef> {
  static TypePtr type() { return TAB(); }
  static const TableRef& get(const Value& v) { return v.as_table(); }
  static const TableRef& get(TypedFrame f, std::int32_t o) { return f.v[o].as_table(); }
};
/// A value of a type-variable parameter or result: boxed, read in place. Its
/// primitive's signature is spelled out (add_typed_sig).
template <>
struct Conv<Value> {
  static const Value& get(const Value& v) { return v; }
  static const Value& get(TypedFrame f, std::int32_t o) { return f.v[o]; }
  static Value box(Value x) { return x; }
  static void put(TypedFrame f, std::int32_t o, Value x) { f.v[o] = std::move(x); }
};
template <>
struct Conv<std::string> {
  static TypePtr type() { return S(); }
  static const std::string& get(const Value& v) { return v.as_string(); }
  static const std::string& get(TypedFrame f, std::int32_t o) {
    return f.v[o].as_string();
  }
};

template <class T>
using ConvOf = Conv<std::remove_cvref_t<T>>;

template <auto F>
struct Typed;
template <class R, class... A, R (*F)(EnvApi&, A...)>
struct Typed<F> {
  using Seq = std::index_sequence_for<A...>;

  static std::vector<TypePtr> params() { return {ConvOf<A>::type()...}; }
  static TypePtr ret() {
    if constexpr (std::is_void_v<R>) {
      return U();
    } else {
      return Conv<R>::type();
    }
  }
  static Value boxed(EnvApi& env, const Args& a) { return call(env, a, Seq{}); }
  static void typed(EnvApi& env, TypedFrame f, const std::int32_t* o) {
    call(env, f, o, Seq{});
  }

 private:
  template <std::size_t... K>
  static Value call(EnvApi& env, const Args& a, std::index_sequence<K...>) {
    if constexpr (std::is_void_v<R>) {
      F(env, ConvOf<A>::get(a[K])...);
      return Value::unit();
    } else {
      return Conv<R>::box(F(env, ConvOf<A>::get(a[K])...));
    }
  }
  template <std::size_t... K>
  static void call(EnvApi& env, TypedFrame f, const std::int32_t* o,
                   std::index_sequence<K...>) {
    if constexpr (std::is_void_v<R>) {
      F(env, ConvOf<A>::get(f, o[K + 1])...);
      f.r[o[0]] = 0;
    } else {
      Conv<R>::put(f, o[0], F(env, ConvOf<A>::get(f, o[K + 1])...));
    }
  }
};

// The typed primitives' bodies: one definition each, boxed and typed entries
// derived by Typed<F>.
std::int64_t char_pos(EnvApi&, char c) { return static_cast<unsigned char>(c); }
std::int64_t abs_int(EnvApi&, std::int64_t v) { return v < 0 ? -v : v; }
std::int64_t min_int(EnvApi&, std::int64_t a, std::int64_t b) { return std::min(a, b); }
std::int64_t max_int(EnvApi&, std::int64_t a, std::int64_t b) { return std::max(a, b); }

net::Ipv4Addr ip_src(EnvApi&, const net::IpHeader& h) { return h.src; }
net::Ipv4Addr ip_dst(EnvApi&, const net::IpHeader& h) { return h.dst; }
net::IpHeader ip_src_set(EnvApi&, net::IpHeader h, net::Ipv4Addr a) {
  h.src = a;
  return h;
}
net::IpHeader ip_dst_set(EnvApi&, net::IpHeader h, net::Ipv4Addr a) {
  h.dst = a;
  return h;
}
std::int64_t ip_proto(EnvApi&, const net::IpHeader& h) {
  return static_cast<std::int64_t>(h.proto);
}
std::int64_t ip_ttl(EnvApi&, const net::IpHeader& h) { return h.ttl; }
std::int64_t ip_tos(EnvApi&, const net::IpHeader& h) { return h.tos; }
net::IpHeader ip_tos_set(EnvApi&, net::IpHeader h, std::int64_t tos) {
  h.tos = static_cast<std::uint8_t>(tos);
  return h;
}
bool is_multicast(EnvApi&, net::Ipv4Addr a) { return a.is_multicast(); }
std::int64_t host_to_int(EnvApi&, net::Ipv4Addr a) { return a.bits(); }

std::int64_t tcp_src(EnvApi&, const net::TcpHeader& h) { return h.sport; }
std::int64_t tcp_dst(EnvApi&, const net::TcpHeader& h) { return h.dport; }
std::int64_t tcp_seq(EnvApi&, const net::TcpHeader& h) { return h.seq; }
std::int64_t tcp_ack_no(EnvApi&, const net::TcpHeader& h) { return h.ack; }
net::TcpHeader tcp_src_set(EnvApi&, net::TcpHeader h, std::int64_t port) {
  h.sport = static_cast<std::uint16_t>(port);
  return h;
}
net::TcpHeader tcp_dst_set(EnvApi&, net::TcpHeader h, std::int64_t port) {
  h.dport = static_cast<std::uint16_t>(port);
  return h;
}
bool tcp_syn(EnvApi&, const net::TcpHeader& h) { return h.has(net::tcpflag::kSyn); }
bool tcp_ack(EnvApi&, const net::TcpHeader& h) { return h.has(net::tcpflag::kAck); }
bool tcp_fin(EnvApi&, const net::TcpHeader& h) { return h.has(net::tcpflag::kFin); }
bool tcp_rst(EnvApi&, const net::TcpHeader& h) { return h.has(net::tcpflag::kRst); }

std::int64_t udp_src(EnvApi&, const net::UdpHeader& h) { return h.sport; }
std::int64_t udp_dst(EnvApi&, const net::UdpHeader& h) { return h.dport; }
net::UdpHeader udp_src_set(EnvApi&, net::UdpHeader h, std::int64_t port) {
  h.sport = static_cast<std::uint16_t>(port);
  return h;
}
net::UdpHeader udp_dst_set(EnvApi&, net::UdpHeader h, std::int64_t port) {
  h.dport = static_cast<std::uint16_t>(port);
  return h;
}

std::int64_t blob_len(EnvApi&, const Blob& b) { return static_cast<std::int64_t>(b->size()); }
// 64-bit little-endian field access, for binary wire formats (the scenario
// cache profile's object ids / sequence numbers). Both are TOTAL — an
// out-of-range offset reads 0 / writes nothing — so verified caching ASPs
// can parse packets without a try (a raising read would cost them the
// guaranteed-delivery verdict; see cacheGetDefault below).
std::int64_t blob_int(EnvApi&, const Blob& blob, std::int64_t off) {
  const auto& b = *blob;
  if (off < 0 || off + 8 > static_cast<std::int64_t>(b.size())) return 0;
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + off, 8);  // LE hosts only, like sample16
  return static_cast<std::int64_t>(v);
}
Blob blob_put_int(EnvApi&, const Blob& blob, std::int64_t off, std::int64_t val) {
  const auto& b = *blob;
  if (off < 0 || off + 8 > static_cast<std::int64_t>(b.size())) {
    return blob;  // nothing to patch: the blob passes through unchanged
  }
  // Copy into a pooled buffer (capacity guaranteed, so the assignment does
  // not allocate in steady state), then patch the field.
  net::Buffer out = net::acquire_buffer(b.size());
  auto& bytes = const_cast<std::vector<std::uint8_t>&>(*out);
  bytes = b;
  std::uint64_t v = static_cast<std::uint64_t>(val);
  std::memcpy(bytes.data() + off, &v, 8);
  return out;
}

// Keys are 64-bit FNV-1a digests carried as PLAN-P ints; bodies are blobs
// aliased into the node's CacheStore, so a fill pins the packet's pooled
// payload buffer and an eviction releases it — no copies on either side.
std::int64_t cache_key3(EnvApi&, const std::string& method, net::Ipv4Addr host,
                        const std::string& path) {
  return static_cast<std::int64_t>(CacheStore::key_of(method, host.bits(), path));
}
std::int64_t cache_key2(EnvApi&, std::int64_t id, net::Ipv4Addr host) {
  return static_cast<std::int64_t>(
      CacheStore::key_of(static_cast<std::uint64_t>(id), host.bits()));
}
// Non-raising lookup (mirrors tableGetDefault): the form verified caching
// ASPs use on the fast path — a raising call would force a try whose handler
// either re-sends (breaking the duplication analysis, which sums a try's body
// and handler) or drops (breaking guaranteed delivery).
Blob cache_get_default(EnvApi& env, std::int64_t key, const Blob& dflt) {
  const net::Buffer* b = env.cache().lookup(static_cast<std::uint64_t>(key), env.time_ms());
  return b == nullptr ? dflt : *b;
}
void cache_store(EnvApi& env, std::int64_t key, const Blob& body) {
  env.cache().store(static_cast<std::uint64_t>(key), body, env.time_ms());
}
bool cache_has(EnvApi& env, std::int64_t key) {
  return env.cache().contains(static_cast<std::uint64_t>(key), env.time_ms());
}

Value table_get(EnvApi&, const TableRef& t, const Value& key) {
  const Value* v = t->get(key);
  if (v == nullptr) raise("NotFound");
  return *v;
}
Value table_get_default(EnvApi&, const TableRef& t, const Value& key, const Value& dflt) {
  const Value* v = t->get(key);
  return v != nullptr ? *v : dflt;
}
void table_set(EnvApi&, const TableRef& t, const Value& key, const Value& v) {
  t->set(key, v);
}
bool table_mem(EnvApi&, const TableRef& t, const Value& key) { return t->contains(key); }
void table_remove(EnvApi&, const TableRef& t, const Value& key) { t->remove(key); }
std::int64_t table_size(EnvApi&, const TableRef& t) {
  return static_cast<std::int64_t>(t->size());
}

net::Ipv4Addr this_host(EnvApi& env) { return env.this_host(); }
std::int64_t get_time(EnvApi& env) { return env.time_ms(); }
std::int64_t link_load(EnvApi& env) { return env.link_load_percent(); }
std::int64_t link_bandwidth(EnvApi& env) { return env.link_bandwidth_kbps(); }
std::int64_t arrival_iface(EnvApi& env) { return env.arrival_iface(); }

/// Registers typed primitive F: signature, boxed and typed entries all come
/// from its one definition.
template <auto F, class Add>
void add_typed(Add& add, std::string name, bool pure, int cost = 1) {
  add(std::move(name), Typed<F>::params(), Typed<F>::ret(), &Typed<F>::boxed,
      /*may_raise=*/false, cost, pure, &Typed<F>::typed);
}
/// The same for a polymorphic F, whose signature is spelled out: its
/// type-variable operands are boxed Values.
template <auto F, class Add>
void add_typed_sig(Add& add, std::string name, std::vector<TypePtr> params, TypePtr ret,
                   bool may_raise, int cost) {
  add(std::move(name), std::move(params), std::move(ret), &Typed<F>::boxed, may_raise, cost,
      /*pure=*/false, &Typed<F>::typed);
}

}  // namespace

Rep rep_of(const TypePtr& t) {
  switch (t->kind()) {
    case Type::Kind::kUnit: return Rep::kUnit;
    case Type::Kind::kInt: return Rep::kInt;
    case Type::Kind::kBool: return Rep::kBool;
    case Type::Kind::kChar: return Rep::kChar;
    case Type::Kind::kHost: return Rep::kHost;
    case Type::Kind::kIp: return Rep::kIp;
    case Type::Kind::kTcp: return Rep::kTcp;
    case Type::Kind::kUdp: return Rep::kUdp;
    default: return Rep::kBox;
  }
}

int reg_width(Rep rep) {
  switch (rep) {
    case Rep::kIp:
    case Rep::kTcp:
    case Rep::kUdp: return 2;
    case Rep::kBox: return 0;
    default: return 1;
  }
}

Value box(Rep rep, TypedFrame f, std::int32_t o) {
  switch (rep) {
    case Rep::kUnit: return Value::unit();
    case Rep::kInt: return Conv<std::int64_t>::box(Conv<std::int64_t>::get(f, o));
    case Rep::kBool: return Conv<bool>::box(Conv<bool>::get(f, o));
    case Rep::kChar: return Conv<char>::box(Conv<char>::get(f, o));
    case Rep::kHost: return Conv<net::Ipv4Addr>::box(Conv<net::Ipv4Addr>::get(f, o));
    case Rep::kIp: return Conv<net::IpHeader>::box(Conv<net::IpHeader>::get(f, o));
    case Rep::kTcp: return Conv<net::TcpHeader>::box(Conv<net::TcpHeader>::get(f, o));
    case Rep::kUdp: return Conv<net::UdpHeader>::box(Conv<net::UdpHeader>::get(f, o));
    case Rep::kBox: return f.v[o];
  }
  throw EvalBug{"box: bad representation"};
}

void unbox(Rep rep, const Value& v, TypedFrame f, std::int32_t o) {
  switch (rep) {
    case Rep::kUnit: f.r[o] = 0; return;
    case Rep::kInt: Conv<std::int64_t>::put(f, o, Conv<std::int64_t>::get(v)); return;
    case Rep::kBool: Conv<bool>::put(f, o, Conv<bool>::get(v)); return;
    case Rep::kChar: Conv<char>::put(f, o, Conv<char>::get(v)); return;
    case Rep::kHost: Conv<net::Ipv4Addr>::put(f, o, Conv<net::Ipv4Addr>::get(v)); return;
    case Rep::kIp: Conv<net::IpHeader>::put(f, o, Conv<net::IpHeader>::get(v)); return;
    case Rep::kTcp: Conv<net::TcpHeader>::put(f, o, Conv<net::TcpHeader>::get(v)); return;
    case Rep::kUdp: Conv<net::UdpHeader>::put(f, o, Conv<net::UdpHeader>::get(v)); return;
    case Rep::kBox: f.v[o] = v; return;
  }
}

Primitives::Primitives() {
  auto add = [this](std::string name, std::vector<TypePtr> params, TypePtr ret,
                    std::function<Value(EnvApi&, const Args&)> fn,
                    bool may_raise = false, int cost = 1, bool pure = false,
                    TypedFn typed = nullptr) {
    int idx = static_cast<int>(prims_.size());
    by_name_[name].push_back(idx);
    prims_.push_back(Primitive{std::move(name), std::move(params), std::move(ret),
                               may_raise, std::move(fn), cost, pure, typed});
  };
  // Pure and boxed: no environment, no raise, an immutable result.
  auto add_pure = [&add](std::string name, std::vector<TypePtr> params, TypePtr ret,
                         std::function<Value(EnvApi&, const Args&)> fn, int cost = 1) {
    add(std::move(name), std::move(params), std::move(ret), std::move(fn),
        /*may_raise=*/false, cost, /*pure=*/true);
  };

  // --- output ---------------------------------------------------------------
  for (TypePtr t : {S(), I(), B(), C(), H()}) {
    add("print", {t}, U(),
        [](EnvApi& env, const Args& a) {
          env.print(a[0].str());
          return Value::unit();
        },
        /*may_raise=*/false, /*cost=*/8);
    add("println", {t}, U(),
        [](EnvApi& env, const Args& a) {
          env.print(a[0].str() + "\n");
          return Value::unit();
        },
        /*may_raise=*/false, /*cost=*/8);
  }

  // --- conversions / scalar helpers ------------------------------------------
  add_pure("intToString", {I()}, S(),
      [](EnvApi&, const Args& a) { return Value::of_string(std::to_string(a[0].as_int())); });
  add_pure("hostToString", {H()}, S(),
      [](EnvApi&, const Args& a) { return Value::of_string(a[0].as_host().str()); });
  add_typed<&char_pos>(add, "charPos", /*pure=*/true);
  add_typed<&char_pos>(add, "ord", /*pure=*/true);
  add(
      "chr", {I()}, C(),
      [](EnvApi&, const Args& a) {
        std::int64_t v = a[0].as_int();
        if (v < 0 || v > 255) raise("InvalidChar");
        return Value::of_char(static_cast<char>(v));
      },
      /*may_raise=*/true);
  add_typed<&abs_int>(add, "abs", /*pure=*/true);
  add_typed<&min_int>(add, "min", /*pure=*/true);
  add_typed<&max_int>(add, "max", /*pure=*/true);
  add_pure("stringLen", {S()}, I(), [](EnvApi&, const Args& a) {
    return Value::of_int(static_cast<std::int64_t>(a[0].as_string().size()));
  });
  add(
      "substring", {S(), I(), I()}, S(),
      [](EnvApi&, const Args& a) {
        const std::string& s = a[0].as_string();
        std::int64_t from = a[1].as_int(), len = a[2].as_int();
        if (from < 0 || len < 0 || from + len > static_cast<std::int64_t>(s.size())) {
          raise("OutOfBounds");
        }
        return Value::of_string(s.substr(static_cast<std::size_t>(from),
                                         static_cast<std::size_t>(len)));
      },
      /*may_raise=*/true, /*cost=*/8);
  add_pure("startsWith", {S(), S()}, B(), [](EnvApi&, const Args& a) {
    const std::string& s = a[0].as_string();
    const std::string& pre = a[1].as_string();
    return Value::of_bool(s.rfind(pre, 0) == 0);
  });
  add_pure("strIndex", {S(), S()}, I(), [](EnvApi&, const Args& a) {
    auto pos = a[0].as_string().find(a[1].as_string());
    return Value::of_int(pos == std::string::npos ? -1 : static_cast<std::int64_t>(pos));
  });
  // ASP extensions (paper §2.3: primitives added when PLAN-P moved from pure
  // routing to ASPs — protocol text parsing for the MPEG monitor).
  add(
      "strWord", {S(), I()}, S(),
      [](EnvApi&, const Args& a) {
        const std::string& s = a[0].as_string();
        std::int64_t want = a[1].as_int();
        std::size_t pos = 0;
        std::int64_t idx = 0;
        while (pos < s.size()) {
          while (pos < s.size() && s[pos] == ' ') ++pos;
          std::size_t start = pos;
          while (pos < s.size() && s[pos] != ' ') ++pos;
          if (start == pos) break;
          if (idx == want) return Value::of_string(s.substr(start, pos - start));
          ++idx;
        }
        raise("OutOfBounds");
      },
      /*may_raise=*/true, /*cost=*/8);
  add(
      "stringToInt", {S()}, I(),
      [](EnvApi&, const Args& a) {
        const std::string& s = a[0].as_string();
        if (s.empty()) raise("BadNumber");
        std::size_t i = s[0] == '-' ? 1 : 0;
        if (i == s.size()) raise("BadNumber");
        std::int64_t v = 0;
        for (; i < s.size(); ++i) {
          if (s[i] < '0' || s[i] > '9') raise("BadNumber");
          v = v * 10 + (s[i] - '0');
        }
        return Value::of_int(s[0] == '-' ? -v : v);
      },
      /*may_raise=*/true);
  add(
      "stringToHost", {S()}, H(),
      [](EnvApi&, const Args& a) {
        auto h = asp::net::Ipv4Addr::parse(a[0].as_string());
        if (!h) raise("BadHost");
        return Value::of_host(*h);
      },
      /*may_raise=*/true);

  // --- hash tables ------------------------------------------------------------
  add("mkTable", {I()}, TAB(),
      [](EnvApi&, const Args& a) {
        return Value::of_table(std::make_shared<HashTable>(
            static_cast<std::size_t>(std::max<std::int64_t>(1, a[0].as_int()))));
      },
      /*may_raise=*/false, /*cost=*/64);
  add_typed_sig<&table_get>(add, "tableGet", {TAB(), VA()}, VB(), /*may_raise=*/true,
                            /*cost=*/4);
  add_typed_sig<&table_set>(add, "tableSet", {TAB(), VA(), VB()}, U(), false, /*cost=*/4);
  add_typed_sig<&table_mem>(add, "tableMem", {TAB(), VA()}, B(), false, /*cost=*/4);
  add_typed_sig<&table_remove>(add, "tableRemove", {TAB(), VA()}, U(), false, /*cost=*/4);
  add_typed_sig<&table_size>(add, "tableSize", {TAB()}, I(), false, /*cost=*/1);
  add_typed_sig<&table_get_default>(add, "tableGetDefault", {TAB(), VA(), VB()}, VB(), false,
                                    /*cost=*/4);

  // --- IP header --------------------------------------------------------------
  add_typed<&ip_src>(add, "ipSrc", /*pure=*/true);
  add_typed<&ip_dst>(add, "ipDst", /*pure=*/true);
  add_typed<&ip_src_set>(add, "ipSrcSet", /*pure=*/true);
  add_typed<&ip_dst_set>(add, "ipDestSet", /*pure=*/true);
  add_typed<&ip_proto>(add, "ipProto", /*pure=*/true);
  add_typed<&ip_ttl>(add, "ipTtl", /*pure=*/true);
  add_typed<&ip_tos>(add, "ipTos", /*pure=*/true);
  add_typed<&ip_tos_set>(add, "ipTosSet", /*pure=*/true);
  add_typed<&is_multicast>(add, "isMulticast", /*pure=*/true);
  add_typed<&host_to_int>(add, "hostToInt", /*pure=*/true);

  // --- TCP header --------------------------------------------------------------
  add_typed<&tcp_src>(add, "tcpSrc", /*pure=*/true);
  add_typed<&tcp_dst>(add, "tcpDst", /*pure=*/true);
  add_typed<&tcp_seq>(add, "tcpSeq", /*pure=*/true);
  add_typed<&tcp_ack_no>(add, "tcpAckNo", /*pure=*/true);
  add_typed<&tcp_src_set>(add, "tcpSrcSet", /*pure=*/true);
  add_typed<&tcp_dst_set>(add, "tcpDstSet", /*pure=*/true);
  add_typed<&tcp_syn>(add, "tcpSyn", /*pure=*/true);
  add_typed<&tcp_ack>(add, "tcpAck", /*pure=*/true);
  add_typed<&tcp_fin>(add, "tcpFin", /*pure=*/true);
  add_typed<&tcp_rst>(add, "tcpRst", /*pure=*/true);

  // --- UDP header --------------------------------------------------------------
  add_typed<&udp_src>(add, "udpSrc", /*pure=*/true);
  add_typed<&udp_dst>(add, "udpDst", /*pure=*/true);
  add_typed<&udp_src_set>(add, "udpSrcSet", /*pure=*/true);
  add_typed<&udp_dst_set>(add, "udpDstSet", /*pure=*/true);

  // --- blobs ---------------------------------------------------------------------
  add_typed<&blob_len>(add, "blobLen", /*pure=*/true);
  add(
      "blobByte", {BL(), I()}, I(),
      [](EnvApi&, const Args& a) {
        const auto& b = *a[0].as_blob();
        std::int64_t i = a[1].as_int();
        if (i < 0 || i >= static_cast<std::int64_t>(b.size())) raise("OutOfBounds");
        return Value::of_int(b[static_cast<std::size_t>(i)]);
      },
      /*may_raise=*/true);
  add(
      "blobSub", {BL(), I(), I()}, BL(),
      [](EnvApi&, const Args& a) {
        const auto& b = *a[0].as_blob();
        std::int64_t from = a[1].as_int(), len = a[2].as_int();
        if (from < 0 || len < 0 || from + len > static_cast<std::int64_t>(b.size())) {
          raise("OutOfBounds");
        }
        return Value::of_blob(std::vector<std::uint8_t>(
            b.begin() + from, b.begin() + from + len));
      },
      /*may_raise=*/true, /*cost=*/32);
  add_pure("blobCat", {BL(), BL()}, BL(),
      [](EnvApi&, const Args& a) {
        std::vector<std::uint8_t> out = *a[0].as_blob();
        const auto& b = *a[1].as_blob();
        out.insert(out.end(), b.begin(), b.end());
        return Value::of_blob(std::move(out));
      },
      /*cost=*/32);
  add_pure("blobFromString", {S()}, BL(),
      [](EnvApi&, const Args& a) {
        const std::string& s = a[0].as_string();
        return Value::of_blob(std::vector<std::uint8_t>(s.begin(), s.end()));
      },
      /*cost=*/16);
  add_pure("blobToString", {BL()}, S(),
      [](EnvApi&, const Args& a) {
        const auto& b = *a[0].as_blob();
        return Value::of_string(std::string(b.begin(), b.end()));
      },
      /*cost=*/16);
  add_typed<&blob_int>(add, "blobInt", /*pure=*/true, /*cost=*/2);
  add_typed<&blob_put_int>(add, "blobPutInt", /*pure=*/true, /*cost=*/32);

  // --- audio transcoding (paper §3.1: degrade 16-bit stereo to 8-bit mono) ----
  add_pure("audioStereoToMono", {BL()}, BL(),
      [](EnvApi&, const Args& a) {
        return Value::of_blob(audio_stereo_to_mono16(*a[0].as_blob()));
      },
      /*cost=*/64);
  add_pure("audioMonoToStereo", {BL()}, BL(),
      [](EnvApi&, const Args& a) {
        return Value::of_blob(audio_mono_to_stereo16(*a[0].as_blob()));
      },
      /*cost=*/64);
  add_pure("audio16To8", {BL()}, BL(),
      [](EnvApi&, const Args& a) {
        return Value::of_blob(audio_16_to_8(*a[0].as_blob()));
      },
      /*cost=*/64);
  add_pure("audio8To16", {BL()}, BL(),
      [](EnvApi&, const Args& a) {
        return Value::of_blob(audio_8_to_16(*a[0].as_blob()));
      },
      /*cost=*/64);

  // --- image distillation (paper §5: "integration of image distillation
  // support into PLAN-P" for low-bandwidth adaptation) -------------------------
  add(
      "distillImage", {BL(), I()}, BL(),
      [](EnvApi&, const Args& a) {
        const auto& img = *a[0].as_blob();
        std::int64_t q = a[1].as_int();
        if (q < 1 || q > 16) raise("BadQuality");
        if (q == 1) return a[0];
        std::vector<std::uint8_t> out;
        out.reserve(img.size() / static_cast<std::size_t>(q) + 1);
        for (std::size_t i = 0; i < img.size(); i += static_cast<std::size_t>(q)) {
          out.push_back(img[i]);
        }
        return Value::of_blob(std::move(out));
      },
      /*may_raise=*/true, /*cost=*/64);

  // --- object cache (HTTP edge caching ASPs; planp/cache.hpp, DESIGN.md §6i) --
  add("cacheConfigure", {I(), I()}, U(),
      [](EnvApi& env, const Args& a) {
        env.cache().configure(
            static_cast<std::size_t>(std::max<std::int64_t>(1, a[0].as_int())),
            a[1].as_int());
        return Value::unit();
      },
      /*may_raise=*/false, /*cost=*/64);
  add_typed<&cache_key3>(add, "cacheKey", /*pure=*/true, /*cost=*/8);
  add_typed<&cache_key2>(add, "cacheKey", /*pure=*/true, /*cost=*/2);
  add(
      "cacheLookup", {I()}, BL(),
      [](EnvApi& env, const Args& a) {
        const net::Buffer* b = env.cache().lookup(
            static_cast<std::uint64_t>(a[0].as_int()), env.time_ms());
        if (b == nullptr) raise("CacheMiss");
        return Value::of_blob_shared(*b);
      },
      /*may_raise=*/true, /*cost=*/8);
  add_typed<&cache_get_default>(add, "cacheGetDefault", /*pure=*/false, /*cost=*/8);
  add_typed<&cache_store>(add, "cacheStore", /*pure=*/false, /*cost=*/8);
  add_typed<&cache_has>(add, "cacheHas", /*pure=*/false, /*cost=*/4);
  add("cacheSize", {}, I(), [](EnvApi& env, const Args&) {
    return Value::of_int(static_cast<std::int64_t>(env.cache().size()));
  });

  // --- environment ------------------------------------------------------------
  add_typed<&this_host>(add, "thisHost", /*pure=*/false);
  add_typed<&get_time>(add, "getTime", /*pure=*/false);
  add_typed<&link_load>(add, "linkLoad", /*pure=*/false);
  add_typed<&link_bandwidth>(add, "linkBandwidth", /*pure=*/false);
  add_typed<&arrival_iface>(add, "arrivalIface", /*pure=*/false);
}

const Primitives& Primitives::instance() {
  static const Primitives p;
  return p;
}

const std::vector<int>& Primitives::overloads(const std::string& name) const {
  static const std::vector<int> empty;
  auto it = by_name_.find(name);
  return it == by_name_.end() ? empty : it->second;
}

}  // namespace asp::planp
