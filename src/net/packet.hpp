// Packet model: IPv4 header plus optional TCP/UDP headers and a payload blob.
//
// PLAN-P channels pattern-match on the header stack (e.g. a channel over
// `ip*tcp*blob` sees every TCP packet), so the packet keeps its headers as
// structured fields rather than raw bytes.
//
// Payloads are copy-on-write: the bytes live in a shared immutable buffer
// (the same rep as a PLAN-P blob), so fan-out on a broadcast segment, TCP
// segmentation and packet->value decoding all alias one allocation. Mutation
// goes through Packet::mutable_payload(), which clones only when the buffer
// is shared — the zero-copy discipline of production proxies (cf. ATS's
// IOBuffer chains).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/pool.hpp"
#include "net/addr.hpp"

namespace asp::net {

/// Shared immutable byte buffer: the payload rep, aliasable with planp::Blob.
using Buffer = std::shared_ptr<const std::vector<std::uint8_t>>;

/// Wraps bytes in a Buffer. All buffers in the system are created through
/// here (or alias one that was): the pointee is allocated non-const, which is
/// what makes Payload's clone-on-write const_cast well-defined. The storage
/// is adopted into mem::buffer_pool(), so when the last reference (Payload,
/// blob Value, aliased packet) drops, the vector — capacity and all — goes
/// back on a freelist instead of to the allocator.
Buffer make_buffer(std::vector<std::uint8_t> bytes);

/// An empty pooled buffer with capacity >= `capacity_hint`: the zero-copy way
/// to build a payload (fill via mutate()/const_cast at the producer). Served
/// from the pool's freelist in steady state.
Buffer acquire_buffer(std::size_t capacity_hint);

/// A copy-on-write byte sequence. Copies alias; `mutate()` clones the bytes
/// iff the buffer is shared. The read API mirrors the std::vector subset the
/// packet path uses, so most call sites did not change when Packet::payload
/// switched from std::vector to Payload.
class Payload {
 public:
  Payload() : buf_(empty_buffer()) {}
  Payload(std::vector<std::uint8_t> bytes)  // NOLINT: implicit by design
      : buf_(bytes.empty() ? empty_buffer() : make_buffer(std::move(bytes))) {}
  Payload(Buffer b) : buf_(b ? std::move(b) : empty_buffer()) {}  // NOLINT
  Payload(std::initializer_list<std::uint8_t> bytes)
      : Payload(std::vector<std::uint8_t>(bytes)) {}

  std::size_t size() const { return buf_->size(); }
  bool empty() const { return buf_->empty(); }
  const std::uint8_t* data() const { return buf_->data(); }
  std::vector<std::uint8_t>::const_iterator begin() const { return buf_->begin(); }
  std::vector<std::uint8_t>::const_iterator end() const { return buf_->end(); }
  std::uint8_t operator[](std::size_t i) const { return (*buf_)[i]; }

  /// Read view of the bytes (never null; empty payloads share one buffer).
  const std::vector<std::uint8_t>& bytes() const { return *buf_; }

  /// The refcounted buffer itself, for aliasing into a PLAN-P blob Value or
  /// another packet without copying.
  const Buffer& buffer() const { return buf_; }

  /// Clone-on-write access: returns the bytes as a mutable vector, cloning
  /// them first iff the buffer is shared with another Payload/blob.
  std::vector<std::uint8_t>& mutate();

  friend bool operator==(const Payload& a, const Payload& b) {
    return a.buf_ == b.buf_ || *a.buf_ == *b.buf_;
  }
  friend bool operator==(const Payload& a, const std::vector<std::uint8_t>& b) {
    return *a.buf_ == b;
  }
  friend bool operator==(const std::vector<std::uint8_t>& a, const Payload& b) {
    return a == *b.buf_;
  }

 private:
  static const Buffer& empty_buffer();

  Buffer buf_;
};

/// Interned channel-tag ids: process-wide, dense, stable small ints standing
/// in for channel-name strings on the dispatch fast path. 0 means "no tag".
class ChannelTags {
 public:
  /// Id for `name`, interning it on first sight ("" -> 0). O(1) amortized.
  static std::uint32_t intern(const std::string& name);
  /// Name for an interned id ("" for 0 or unknown ids).
  static const std::string& name_of(std::uint32_t id);
};

/// IP protocol numbers we model.
enum class IpProto : std::uint8_t { kRaw = 0, kTcp = 6, kUdp = 17 };

struct IpHeader {
  Ipv4Addr src;
  Ipv4Addr dst;
  IpProto proto = IpProto::kRaw;
  std::uint8_t ttl = 64;
  std::uint8_t tos = 0;

  static constexpr std::size_t kWireSize = 20;
};

/// TCP flag bits.
namespace tcpflag {
inline constexpr std::uint8_t kFin = 0x01;
inline constexpr std::uint8_t kSyn = 0x02;
inline constexpr std::uint8_t kRst = 0x04;
inline constexpr std::uint8_t kPsh = 0x08;
inline constexpr std::uint8_t kAck = 0x10;
}  // namespace tcpflag

struct TcpHeader {
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t wnd = 0;

  static constexpr std::size_t kWireSize = 20;

  bool has(std::uint8_t f) const { return (flags & f) != 0; }
};

struct UdpHeader {
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;

  static constexpr std::size_t kWireSize = 8;
};

/// A network packet. Copyable (broadcast media copy it per receiver); copies
/// alias the payload buffer until one side mutates. No member owns heap
/// memory besides the payload reference, so a packet fits 72 bytes.
struct Packet {
  IpHeader ip;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  Payload payload;

  /// Unique id for tracing/debugging; assigned by the sender.
  std::uint64_t id = 0;

  /// PLAN-P user-defined channel tag, as an interned ChannelTags id (0 =
  /// untagged). Packets sent on a user channel carry it so the receiving
  /// runtime can dispatch them (paper §2: "When packets are sent on a
  /// user-defined channel, the packet is tagged"); ChannelTags::name_of
  /// gives the name.
  std::uint32_t channel_tag = 0;

  /// Per-hop L2 destination hint set by the sender's route lookup (stands in
  /// for ARP): on a shared segment the frame is delivered to the interface
  /// with this address. Unspecified means "resolve by ip.dst".
  Ipv4Addr l2_next_hop;

  /// Tags the packet with the channel `name` ("" untags it).
  void set_channel(const std::string& name) { channel_tag = ChannelTags::intern(name); }

  /// Clone-on-write access to the payload bytes.
  std::vector<std::uint8_t>& mutable_payload() { return payload.mutate(); }

  /// Bytes on the wire: headers + payload (+4 for a channel tag when present).
  std::size_t wire_size() const {
    std::size_t n = IpHeader::kWireSize + payload.size();
    if (tcp) n += TcpHeader::kWireSize;
    if (udp) n += UdpHeader::kWireSize;
    if (channel_tag != 0) n += 4;
    return n;
  }

  /// Convenience factories.
  static Packet make_udp(Ipv4Addr src, Ipv4Addr dst, std::uint16_t sport,
                         std::uint16_t dport, Payload payload);
  static Packet make_tcp(Ipv4Addr src, Ipv4Addr dst, const TcpHeader& hdr,
                         Payload payload);
  static Packet make_raw(Ipv4Addr src, Ipv4Addr dst, Payload payload);
};

// A packet box node is the packet plus two pointers: 88 bytes at this size.
static_assert(sizeof(Packet) <= 72, "Packet grew past 72 bytes");

/// Pool of in-flight Packet boxes. A packet is boxed once, where it enters
/// the network (Node::send_ip, Node::forward, Interface::transmit), and the
/// box travels from medium to node to medium until the last hop delivers or
/// drops it: each hop moves one pointer, and the arrival event's capture
/// stays within SmallFn's inline buffer. Copies (segment fan-out, duplicated
/// frames, multicast) get boxes of their own.
mem::BoxPool<Packet>& packet_boxes();

/// Owning handle to a boxed packet; destroying it recycles the box.
using PacketBox = mem::BoxPool<Packet>::Handle;

/// Builds a payload from a string (for control messages).
std::vector<std::uint8_t> bytes_of(const std::string& s);
/// Interprets a payload as a string.
std::string string_of(const std::vector<std::uint8_t>& b);
std::string string_of(const Payload& p);

}  // namespace asp::net
