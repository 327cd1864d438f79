// Built-in PLAN-P primitives and the environment interface they run against.
//
// The paper (§2.3): "Extending the interpreter with a new primitive involves
// defining two C functions. One function performs the calculation of the
// primitive, while the second computes the return type of the primitive given
// the types of its arguments." Here a primitive is one C++ function over C++
// types (primitives.cpp), registered once with its cost and whether it may
// raise. Typed<F> derives from that function both roles and the two engines'
// entry points: the PLAN-P signature (type variables resolved by unification
// in the checker), the boxed entry the interpreter calls and the typed entry
// the JIT calls on its frame. No primitive is written twice.
#pragma once

#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "net/addr.hpp"
#include "net/packet.hpp"
#include "net/time.hpp"
#include "planp/types.hpp"
#include "planp/value.hpp"

namespace asp::planp {

class CacheStore;  // planp/cache.hpp

/// What a running PLAN-P program can observe/do in its host node. Implemented
/// by the ASP runtime (src/runtime); tests use lightweight fakes.
class EnvApi {
 public:
  // Constructor/destructor live in cache.cpp: cache_ is a
  // unique_ptr to the forward-declared CacheStore, so both members that
  // could destroy it must be out of line.
  EnvApi();
  virtual ~EnvApi();

  /// `print`/`println` output sink.
  virtual void print(const std::string& s) = 0;
  /// `thisHost()`: the node's primary address.
  virtual asp::net::Ipv4Addr this_host() = 0;
  /// `getTime()`: current time in milliseconds.
  virtual std::int64_t time_ms() = 0;
  /// `linkLoad()`: outgoing link utilization in percent [0,100]. This is the
  /// local measurement the audio router ASP adapts on (paper §3.1). A
  /// segment meters from its first frame; a point-to-point link meters from
  /// the first read, which therefore returns 0.
  virtual std::int64_t link_load_percent() = 0;
  /// `linkBandwidth()`: outgoing link capacity in kb/s.
  virtual std::int64_t link_bandwidth_kbps() = 0;
  /// `arrivalIface()`: index of the interface the current packet arrived on
  /// (-1 for locally generated packets). The PLAN-P Ethernet bridge of the
  /// authors' earlier work needs this to learn which side a host is on.
  virtual std::int64_t arrival_iface() = 0;

  // Packet emission, used by the kSend AST node (not by primitives). The
  // channel is the net::ChannelTags id the type checker interned for the
  // send's channel name (Expr::chan_tag), so no packet path hashes a string.
  // The engines hand over the packet built and untagged (channel_tag 0);
  // tagging it is the environment's business.
  virtual void on_remote(std::uint32_t chan_tag, asp::net::Packet packet) = 0;
  virtual void on_neighbor(std::uint32_t chan_tag, asp::net::Packet packet) = 0;
  virtual void deliver(asp::net::Packet packet) = 0;
  virtual void drop() = 0;

  /// The node's object cache, backing the cache* primitives (planp/cache.hpp,
  /// DESIGN.md §6i). Created on first cache-primitive use, so an environment
  /// whose ASPs never cache pays nothing; an AspRuntime's store survives
  /// reinstalls. Its stats() are the one count of the node's cache traffic.
  CacheStore& cache();

 private:
  std::unique_ptr<CacheStore> cache_;  // lazy; backs cache()
};

/// EnvApi that ignores sends and collects prints; for tests and pure bench.
class NullEnv : public EnvApi {
 public:
  void print(const std::string& s) override { output += s; }
  asp::net::Ipv4Addr this_host() override { return host; }
  std::int64_t time_ms() override { return now_ms; }
  std::int64_t link_load_percent() override { return load_percent; }
  std::int64_t link_bandwidth_kbps() override { return bandwidth_kbps; }
  std::int64_t arrival_iface() override { return arrival; }
  void on_remote(std::uint32_t tag, asp::net::Packet p) override {
    sends.push_back({tag, std::move(p)});
  }
  void on_neighbor(std::uint32_t tag, asp::net::Packet p) override {
    sends.push_back({tag, std::move(p)});
  }
  void deliver(asp::net::Packet p) override { delivered.push_back(std::move(p)); }
  void drop() override { ++drops; }

  std::string output;
  asp::net::Ipv4Addr host;
  std::int64_t now_ms = 0;
  std::int64_t load_percent = 0;
  std::int64_t bandwidth_kbps = 10'000;
  std::int64_t arrival = 0;
  /// Each send's interned channel tag (net::ChannelTags) and packet.
  std::vector<std::pair<std::uint32_t, asp::net::Packet>> sends;
  std::vector<asp::net::Packet> delivered;
  int drops = 0;
};

// --- the JIT's typed frame -----------------------------------------------------

/// How a value of a checked type is held in the JIT's typed frame. Scalars
/// are one unboxed 8-byte register (int as is, bool 0/1, char sign-extended,
/// host as its address bits, unit 0); a header is two registers holding the
/// header struct; everything else (strings, blobs, tuples, tables) is one
/// boxed Value slot.
enum class Rep : std::uint8_t { kUnit, kInt, kBool, kChar, kHost, kIp, kTcp, kUdp, kBox };

Rep rep_of(const TypePtr& t);
/// Registers a value of `rep` occupies (2 for headers, 1 for other scalars);
/// 0 for boxed values, which take a Value slot instead.
int reg_width(Rep rep);

/// The frame a typed template or primitive entry reads and writes: registers
/// `r` and boxed slots `v`, each indexed by slot number.
struct TypedFrame {
  std::int64_t* r;
  Value* v;
};

/// A header held in two registers, copied bytewise (headers are trivially
/// copyable and at most 16 bytes).
template <class H>
H load_header(const std::int64_t* r) {
  static_assert(sizeof(H) <= 2 * sizeof(std::int64_t) && std::is_trivially_copyable_v<H>);
  H h;
  std::memcpy(static_cast<void*>(&h), r, sizeof(H));
  return h;
}
template <class H>
void store_header(std::int64_t* r, const H& h) {
  std::memcpy(r, &h, sizeof(H));
}

/// Boxes the value of `rep` held at slot `o`; unboxes `v` into it.
Value box(Rep rep, TypedFrame f, std::int32_t o);
void unbox(Rep rep, const Value& v, TypedFrame f, std::int32_t o);

/// A primitive's typed entry point: reads its arguments from frame slots
/// o[1], o[2], ... and writes its result to slot o[0], boxing nothing.
using TypedFn = void (*)(EnvApi& env, TypedFrame f, const std::int32_t* o);
/// A primitive's boxed entry point: the interpreter calls it, and the JIT
/// folds a call of a pure primitive on literals with it.
using BoxedFn = Value (*)(EnvApi& env, const std::vector<Value>& args);

/// One primitive overload. Both entries are derived from the primitive's one
/// C++ function, so every primitive has both.
struct Primitive {
  std::string name;
  /// May contain Type::Var(n). At most three: a JIT template carries a
  /// destination and three operands (checked where primitives register).
  std::vector<TypePtr> params;
  TypePtr ret;
  bool may_raise = false;  // used by the guaranteed-delivery analysis
  /// Abstract work units charged by the bounded-cost analysis (analysis.cpp):
  /// 1 for scalar ops, more for ops that touch whole payloads or state.
  int cost = 1;
  /// Reads no environment, cannot raise and returns an immutable value: a
  /// call whose arguments are all literals is folded into a constant when the
  /// JIT lowers it.
  bool pure = false;
  BoxedFn fn = nullptr;
  TypedFn typed = nullptr;
};

/// The global primitive table. Indices are stable: Expr::call_target holds one.
class Primitives {
 public:
  static const Primitives& instance();

  const std::vector<Primitive>& all() const { return prims_; }
  const Primitive& at(int idx) const { return prims_.at(static_cast<std::size_t>(idx)); }

  /// All overload indices for `name` (empty if unknown).
  const std::vector<int>& overloads(const std::string& name) const;

  bool known(const std::string& name) const { return !overloads(name).empty(); }

 private:
  Primitives();
  std::vector<Primitive> prims_;
  std::unordered_map<std::string, std::vector<int>> by_name_;
};

// --- audio transcoding helpers (exposed for the built-in C baseline) --------

/// 16-bit stereo PCM -> 16-bit mono (average channels). Sizes halve.
std::vector<std::uint8_t> audio_stereo_to_mono16(const std::vector<std::uint8_t>& pcm);
/// 16-bit mono -> 8-bit mono. Sizes halve.
std::vector<std::uint8_t> audio_16_to_8(const std::vector<std::uint8_t>& pcm);
/// 8-bit mono -> 16-bit mono (inverse companding; lossy round trip).
std::vector<std::uint8_t> audio_8_to_16(const std::vector<std::uint8_t>& pcm);
/// 16-bit mono -> 16-bit stereo (duplicate channel).
std::vector<std::uint8_t> audio_mono_to_stereo16(const std::vector<std::uint8_t>& pcm);

}  // namespace asp::planp
