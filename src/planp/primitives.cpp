#include "planp/primitives.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <type_traits>
#include <utility>

#include "planp/cache.hpp"
#include "planp/interp.hpp"

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
// A primitive is one C++ function over C++ types. Typed<F> derives from that
// one definition its PLAN-P signature, the boxed entry the interpreter calls
// and the typed entry the JIT calls on its frame. Conv<T> says how a C++ type
// maps to a PLAN-P type, a boxed Value and a frame slot.
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
/// The boxed kinds, held in a Value slot and read in place.
template <class T, TypePtr (*Ty)(), const T& (Value::*As)() const, Value (*Of)(T)>
struct BoxConv {
  static TypePtr type() { return Ty(); }
  static const T& get(const Value& v) { return (v.*As)(); }
  static const T& get(TypedFrame f, std::int32_t o) { return (f.v[o].*As)(); }
  static Value box(T x) { return Of(std::move(x)); }
  static void put(TypedFrame f, std::int32_t o, T x) { f.v[o] = Of(std::move(x)); }
};
template <>
struct Conv<std::string> : BoxConv<std::string, S, &Value::as_string, &Value::of_string> {};
template <>
struct Conv<Blob> : BoxConv<Blob, BL, &Value::as_blob, &Value::of_blob_shared> {};
template <>
struct Conv<TableRef> : BoxConv<TableRef, TAB, &Value::as_table, &Value::of_table> {};
/// A value of a type-variable parameter or result: boxed, read in place. Its
/// primitive's signature is spelled out (add_typed_sig).
template <>
struct Conv<Value> {
  static const Value& get(const Value& v) { return v; }
  static const Value& get(TypedFrame f, std::int32_t o) { return f.v[o]; }
  static Value box(Value x) { return x; }
  static void put(TypedFrame f, std::int32_t o, Value x) { f.v[o] = std::move(x); }
};

template <class T>
using ConvOf = Conv<std::remove_cvref_t<T>>;

template <auto F>
struct Typed;
template <class R, class... A, R (*F)(EnvApi&, A...)>
struct Typed<F> {
  // A TInstr carries a destination and three operands.
  static_assert(sizeof...(A) <= 3, "a primitive takes at most three parameters");
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

/// True when [from, from + len) lies within [0, size). Nothing is summed
/// that could overflow, so hostile offsets near the int range are refused.
bool in_bounds(std::int64_t from, std::int64_t len, std::size_t size) {
  return from >= 0 && len >= 0 && static_cast<std::uint64_t>(from) <= size &&
         static_cast<std::uint64_t>(len) <= size - static_cast<std::uint64_t>(from);
}

// --- the primitives' bodies: one definition each --------------------------------

template <class T>
void print(EnvApi& env, T v) {
  env.print(ConvOf<T>::box(v).str());
}
template <class T>
void println(EnvApi& env, T v) {
  env.print(ConvOf<T>::box(v).str() + "\n");
}

std::string int_to_string(EnvApi&, std::int64_t v) { return std::to_string(v); }
std::string host_to_string(EnvApi&, net::Ipv4Addr a) { return a.str(); }
std::int64_t char_pos(EnvApi&, char c) { return static_cast<unsigned char>(c); }
char chr(EnvApi&, std::int64_t v) {
  if (v < 0 || v > 255) raise("InvalidChar");
  return static_cast<char>(v);
}
std::int64_t abs_int(EnvApi&, std::int64_t v) { return int_abs(v); }
std::int64_t min_int(EnvApi&, std::int64_t a, std::int64_t b) { return std::min(a, b); }
std::int64_t max_int(EnvApi&, std::int64_t a, std::int64_t b) { return std::max(a, b); }

std::int64_t string_len(EnvApi&, const std::string& s) {
  return static_cast<std::int64_t>(s.size());
}
std::string substring(EnvApi&, const std::string& s, std::int64_t from, std::int64_t len) {
  if (!in_bounds(from, len, s.size())) raise("OutOfBounds");
  return s.substr(static_cast<std::size_t>(from), static_cast<std::size_t>(len));
}
bool starts_with(EnvApi&, const std::string& s, const std::string& pre) {
  return s.rfind(pre, 0) == 0;
}
std::int64_t str_index(EnvApi&, const std::string& s, const std::string& sub) {
  const auto pos = s.find(sub);
  return pos == std::string::npos ? -1 : static_cast<std::int64_t>(pos);
}
// ASP extensions (paper §2.3: primitives added when PLAN-P moved from pure
// routing to ASPs — protocol text parsing for the MPEG monitor).
std::string str_word(EnvApi&, const std::string& s, std::int64_t want) {
  std::size_t pos = 0;
  std::int64_t idx = 0;
  while (pos < s.size()) {
    while (pos < s.size() && s[pos] == ' ') ++pos;
    std::size_t start = pos;
    while (pos < s.size() && s[pos] != ' ') ++pos;
    if (start == pos) break;
    if (idx == want) return s.substr(start, pos - start);
    ++idx;
  }
  raise("OutOfBounds");
}
/// An optional '-' and decimal digits, within the int range.
std::int64_t string_to_int(EnvApi&, const std::string& s) {
  std::int64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end) raise("BadNumber");
  return v;
}
net::Ipv4Addr string_to_host(EnvApi&, const std::string& s) {
  const auto h = net::Ipv4Addr::parse(s);
  if (!h) raise("BadHost");
  return *h;
}

/// mkTable's size is a reserve hint; a hostile one must not allocate the node
/// out of memory, so it is capped here (tables still grow past it).
constexpr std::int64_t kMaxTableReserve = 1 << 16;
TableRef mk_table(EnvApi&, std::int64_t hint) {
  return std::make_shared<HashTable>(
      static_cast<std::size_t>(std::clamp<std::int64_t>(hint, 1, kMaxTableReserve)));
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
std::int64_t blob_byte(EnvApi&, const Blob& b, std::int64_t i) {
  if (!in_bounds(i, 1, b->size())) raise("OutOfBounds");
  return (*b)[static_cast<std::size_t>(i)];
}
Blob blob_sub(EnvApi&, const Blob& b, std::int64_t from, std::int64_t len) {
  if (!in_bounds(from, len, b->size())) raise("OutOfBounds");
  const auto at = b->begin() + from;
  return net::make_buffer(std::vector<std::uint8_t>(at, at + len));
}
Blob blob_cat(EnvApi&, const Blob& a, const Blob& b) {
  std::vector<std::uint8_t> out = *a;
  out.insert(out.end(), b->begin(), b->end());
  return net::make_buffer(std::move(out));
}
Blob blob_from_string(EnvApi&, const std::string& s) {
  return net::make_buffer(std::vector<std::uint8_t>(s.begin(), s.end()));
}
std::string blob_to_string(EnvApi&, const Blob& b) { return std::string(b->begin(), b->end()); }
// 64-bit little-endian field access, for binary wire formats (the scenario
// cache profile's object ids / sequence numbers). Both are TOTAL — an
// out-of-range offset reads 0 / writes nothing — so verified caching ASPs
// can parse packets without a try (a raising read would cost them the
// guaranteed-delivery verdict; see cacheGetDefault below).
std::int64_t blob_int(EnvApi&, const Blob& blob, std::int64_t off) {
  const auto& b = *blob;
  if (!in_bounds(off, 8, b.size())) return 0;
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + off, 8);  // LE hosts only, like sample16
  return static_cast<std::int64_t>(v);
}
Blob blob_put_int(EnvApi&, const Blob& blob, std::int64_t off, std::int64_t val) {
  const auto& b = *blob;
  if (!in_bounds(off, 8, b.size())) {
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

// Audio transcoding (paper §3.1: degrade 16-bit stereo to 8-bit mono) runs
// the kernels the built-in C baseline shares.
template <std::vector<std::uint8_t> (*Kernel)(const std::vector<std::uint8_t>&)>
Blob transcode(EnvApi&, const Blob& pcm) {
  return net::make_buffer(Kernel(*pcm));
}
// Image distillation (paper §5: "integration of image distillation support
// into PLAN-P" for low-bandwidth adaptation).
Blob distill_image(EnvApi&, const Blob& blob, std::int64_t q) {
  if (q < 1 || q > 16) raise("BadQuality");
  if (q == 1) return blob;
  const auto& img = *blob;
  std::vector<std::uint8_t> out;
  out.reserve(img.size() / static_cast<std::size_t>(q) + 1);
  for (std::size_t i = 0; i < img.size(); i += static_cast<std::size_t>(q)) {
    out.push_back(img[i]);
  }
  return net::make_buffer(std::move(out));
}

// Keys are 64-bit FNV-1a digests carried as PLAN-P ints; bodies are blobs
// aliased into the node's CacheStore, so a fill pins the packet's pooled
// payload buffer and an eviction releases it — no copies on either side.
void cache_configure(EnvApi& env, std::int64_t entries, std::int64_t ttl_ms) {
  env.cache().configure(static_cast<std::size_t>(std::max<std::int64_t>(1, entries)), ttl_ms);
}
std::int64_t cache_key3(EnvApi&, const std::string& method, net::Ipv4Addr host,
                        const std::string& path) {
  return static_cast<std::int64_t>(CacheStore::key_of(method, host.bits(), path));
}
std::int64_t cache_key2(EnvApi&, std::int64_t id, net::Ipv4Addr host) {
  return static_cast<std::int64_t>(
      CacheStore::key_of(static_cast<std::uint64_t>(id), host.bits()));
}
Blob cache_lookup(EnvApi& env, std::int64_t key) {
  const net::Buffer* b = env.cache().lookup(static_cast<std::uint64_t>(key), env.time_ms());
  if (b == nullptr) raise("CacheMiss");
  return *b;
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
std::int64_t cache_size(EnvApi& env) { return static_cast<std::int64_t>(env.cache().size()); }

net::Ipv4Addr this_host(EnvApi& env) { return env.this_host(); }
std::int64_t get_time(EnvApi& env) { return env.time_ms(); }
std::int64_t link_load(EnvApi& env) { return env.link_load_percent(); }
std::int64_t link_bandwidth(EnvApi& env) { return env.link_bandwidth_kbps(); }
std::int64_t arrival_iface(EnvApi& env) { return env.arrival_iface(); }

// --- registration ----------------------------------------------------------------

/// What a primitive may do besides computing its result.
enum class Effect {
  /// Reads no environment and no table, cannot raise, returns an immutable
  /// value: a call on literals is folded into a constant.
  kPure,
  /// Cannot raise, but reads or changes the node, its cache or a table.
  kTotal,
  /// May raise a PLAN-P exception (the guaranteed-delivery analysis).
  kRaises,
};

Primitive make_primitive(std::string name, std::vector<TypePtr> params, TypePtr ret,
                         Effect effect, int cost, BoxedFn fn, TypedFn typed) {
  return Primitive{std::move(name), std::move(params), std::move(ret),
                   effect == Effect::kRaises, cost, effect == Effect::kPure, fn, typed};
}

/// Registers F: its signature and both entries come from its one definition.
template <auto F>
void add_typed(std::vector<Primitive>& out, std::string name, Effect effect, int cost = 1) {
  out.push_back(make_primitive(std::move(name), Typed<F>::params(), Typed<F>::ret(), effect,
                               cost, &Typed<F>::boxed, &Typed<F>::typed));
}
/// The same for a polymorphic F, whose signature is spelled out: its
/// type-variable operands are boxed Values.
template <auto F>
void add_typed_sig(std::vector<Primitive>& out, std::string name, std::vector<TypePtr> params,
                   TypePtr ret, Effect effect, int cost) {
  out.push_back(make_primitive(std::move(name), std::move(params), std::move(ret), effect,
                               cost, &Typed<F>::boxed, &Typed<F>::typed));
}
template <class T>
void add_prints(std::vector<Primitive>& out) {
  add_typed<&print<T>>(out, "print", Effect::kTotal, 8);
  add_typed<&println<T>>(out, "println", Effect::kTotal, 8);
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
  using E = Effect;
  std::vector<Primitive>& p = prims_;

  // --- output ---------------------------------------------------------------
  add_prints<const std::string&>(p);
  add_prints<std::int64_t>(p);
  add_prints<bool>(p);
  add_prints<char>(p);
  add_prints<net::Ipv4Addr>(p);

  // --- conversions / scalar helpers ------------------------------------------
  add_typed<&int_to_string>(p, "intToString", E::kPure);
  add_typed<&host_to_string>(p, "hostToString", E::kPure);
  add_typed<&char_pos>(p, "charPos", E::kPure);
  add_typed<&char_pos>(p, "ord", E::kPure);
  add_typed<&chr>(p, "chr", E::kRaises);
  add_typed<&abs_int>(p, "abs", E::kPure);
  add_typed<&min_int>(p, "min", E::kPure);
  add_typed<&max_int>(p, "max", E::kPure);
  add_typed<&string_len>(p, "stringLen", E::kPure);
  add_typed<&substring>(p, "substring", E::kRaises, 8);
  add_typed<&starts_with>(p, "startsWith", E::kPure);
  add_typed<&str_index>(p, "strIndex", E::kPure);
  add_typed<&str_word>(p, "strWord", E::kRaises, 8);
  add_typed<&string_to_int>(p, "stringToInt", E::kRaises);
  add_typed<&string_to_host>(p, "stringToHost", E::kRaises);

  // --- hash tables ------------------------------------------------------------
  add_typed<&mk_table>(p, "mkTable", E::kTotal, 64);
  add_typed_sig<&table_get>(p, "tableGet", {TAB(), VA()}, VB(), E::kRaises, 4);
  add_typed_sig<&table_set>(p, "tableSet", {TAB(), VA(), VB()}, U(), E::kTotal, 4);
  add_typed_sig<&table_mem>(p, "tableMem", {TAB(), VA()}, B(), E::kTotal, 4);
  add_typed_sig<&table_remove>(p, "tableRemove", {TAB(), VA()}, U(), E::kTotal, 4);
  add_typed_sig<&table_size>(p, "tableSize", {TAB()}, I(), E::kTotal, 1);
  add_typed_sig<&table_get_default>(p, "tableGetDefault", {TAB(), VA(), VB()}, VB(),
                                    E::kTotal, 4);

  // --- IP header --------------------------------------------------------------
  add_typed<&ip_src>(p, "ipSrc", E::kPure);
  add_typed<&ip_dst>(p, "ipDst", E::kPure);
  add_typed<&ip_src_set>(p, "ipSrcSet", E::kPure);
  add_typed<&ip_dst_set>(p, "ipDestSet", E::kPure);
  add_typed<&ip_proto>(p, "ipProto", E::kPure);
  add_typed<&ip_ttl>(p, "ipTtl", E::kPure);
  add_typed<&ip_tos>(p, "ipTos", E::kPure);
  add_typed<&ip_tos_set>(p, "ipTosSet", E::kPure);
  add_typed<&is_multicast>(p, "isMulticast", E::kPure);
  add_typed<&host_to_int>(p, "hostToInt", E::kPure);

  // --- TCP header --------------------------------------------------------------
  add_typed<&tcp_src>(p, "tcpSrc", E::kPure);
  add_typed<&tcp_dst>(p, "tcpDst", E::kPure);
  add_typed<&tcp_seq>(p, "tcpSeq", E::kPure);
  add_typed<&tcp_ack_no>(p, "tcpAckNo", E::kPure);
  add_typed<&tcp_src_set>(p, "tcpSrcSet", E::kPure);
  add_typed<&tcp_dst_set>(p, "tcpDstSet", E::kPure);
  add_typed<&tcp_syn>(p, "tcpSyn", E::kPure);
  add_typed<&tcp_ack>(p, "tcpAck", E::kPure);
  add_typed<&tcp_fin>(p, "tcpFin", E::kPure);
  add_typed<&tcp_rst>(p, "tcpRst", E::kPure);

  // --- UDP header --------------------------------------------------------------
  add_typed<&udp_src>(p, "udpSrc", E::kPure);
  add_typed<&udp_dst>(p, "udpDst", E::kPure);
  add_typed<&udp_src_set>(p, "udpSrcSet", E::kPure);
  add_typed<&udp_dst_set>(p, "udpDstSet", E::kPure);

  // --- blobs ---------------------------------------------------------------------
  add_typed<&blob_len>(p, "blobLen", E::kPure);
  add_typed<&blob_byte>(p, "blobByte", E::kRaises);
  add_typed<&blob_sub>(p, "blobSub", E::kRaises, 32);
  add_typed<&blob_cat>(p, "blobCat", E::kPure, 32);
  add_typed<&blob_from_string>(p, "blobFromString", E::kPure, 16);
  add_typed<&blob_to_string>(p, "blobToString", E::kPure, 16);
  add_typed<&blob_int>(p, "blobInt", E::kPure, 2);
  add_typed<&blob_put_int>(p, "blobPutInt", E::kPure, 32);

  // --- media transforms -----------------------------------------------------------
  add_typed<&transcode<&audio_stereo_to_mono16>>(p, "audioStereoToMono", E::kPure, 64);
  add_typed<&transcode<&audio_mono_to_stereo16>>(p, "audioMonoToStereo", E::kPure, 64);
  add_typed<&transcode<&audio_16_to_8>>(p, "audio16To8", E::kPure, 64);
  add_typed<&transcode<&audio_8_to_16>>(p, "audio8To16", E::kPure, 64);
  add_typed<&distill_image>(p, "distillImage", E::kRaises, 64);

  // --- object cache (HTTP edge caching ASPs; planp/cache.hpp, DESIGN.md §6i) --
  add_typed<&cache_configure>(p, "cacheConfigure", E::kTotal, 64);
  add_typed<&cache_key3>(p, "cacheKey", E::kPure, 8);
  add_typed<&cache_key2>(p, "cacheKey", E::kPure, 2);
  add_typed<&cache_lookup>(p, "cacheLookup", E::kRaises, 8);
  add_typed<&cache_get_default>(p, "cacheGetDefault", E::kTotal, 8);
  add_typed<&cache_store>(p, "cacheStore", E::kTotal, 8);
  add_typed<&cache_has>(p, "cacheHas", E::kTotal, 4);
  add_typed<&cache_size>(p, "cacheSize", E::kTotal);

  // --- environment ------------------------------------------------------------
  add_typed<&this_host>(p, "thisHost", E::kTotal);
  add_typed<&get_time>(p, "getTime", E::kTotal);
  add_typed<&link_load>(p, "linkLoad", E::kTotal);
  add_typed<&link_bandwidth>(p, "linkBandwidth", E::kTotal);
  add_typed<&arrival_iface>(p, "arrivalIface", E::kTotal);

  for (std::size_t i = 0; i < prims_.size(); ++i) {
    by_name_[prims_[i].name].push_back(static_cast<int>(i));
  }
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
