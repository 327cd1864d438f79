// Packet <-> PLAN-P value conversion.
//
// A channel over `ip*tcp*char*int` sees a TCP packet as a 4-tuple whose
// payload has been decoded into a char then a big-endian int32 (paper Figure 4
// relies on this to dispatch on the first payload byte). Scalar payload fields
// are decoded in order; a trailing `blob` takes the rest.
//
// This file is the only place that knows the payload's byte layout. The type
// checker compiles each channel's packet type into a DecodePlan once
// (CheckedProgram::plans), and the runtime and both engines read that plan.
// The interpreter decodes each packet into a tuple and encodes what it
// sends; the JIT loads the fields it reads in place and builds what it sends
// straight from its typed frame (PacketBuilder, reemit_packet). Both read
// payload fields through one PayloadReader.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "planp/types.hpp"
#include "planp/value.hpp"

namespace asp::planp {

/// Compiled decode recipe for one channel packet type. The walk over the
/// type tree happens once, when the program is type-checked, so the
/// per-packet path runs a flat loop over fields (the "parser" stage of the
/// match-action pipeline, DESIGN.md §6c).
struct DecodePlan {
  /// kAny = header-only pattern (`ip*...`): accepts any transport, the
  /// transport header rides at the front of the logical payload bytes.
  enum class Transport : std::uint8_t { kAny, kTcp, kUdp };
  enum class FieldOp : std::uint8_t { kChar, kBool, kInt, kBlob };
  /// One payload field: how it is read and the byte it starts at (a blob
  /// takes the rest of the bytes from there).
  struct Field {
    FieldOp op;
    std::uint32_t offset;
  };

  Transport transport = Transport::kAny;
  std::vector<Field> fields;      // payload fields, in order
  std::uint32_t fixed_bytes = 0;  // bytes consumed by scalar fields
  bool has_blob = false;          // trailing blob takes the rest

  /// Tuple position of the first payload field: after the IP header and a
  /// typed transport header.
  std::size_t headers() const { return transport == Transport::kAny ? 1 : 2; }
  /// Elements of the decoded tuple.
  std::size_t arity() const { return headers() + fields.size(); }
};

/// Compiles `type`, a packet type the checker accepted (is_packet_type),
/// into a flat decode plan.
DecodePlan compile_decode_plan(const TypePtr& type);

/// Validation only: true iff decode_packet(p, plan) would succeed.
/// Checks transport shape, payload length and strict-bool bytes without
/// materializing a tuple. The runtime calls it before every channel run;
/// both engines require a matching packet.
bool match_packet(const asp::net::Packet& p, const DecodePlan& plan);

/// The one reader of a packet's payload fields, behind match_packet,
/// decode_matched and the JIT's in-place loads. The bytes the fields lie in
/// are the payload, or, for a header-only plan on a TCP or UDP packet, the
/// transport header serialized in front of it (built on first use). A blob
/// that starts the bytes aliases their buffer; a later one copies the rest.
/// Reads assume the packet matches the plan's transport and length.
class PayloadReader {
 public:
  PayloadReader(const asp::net::Packet& p, const DecodePlan& plan)
      : p_(p),
        serialize_(plan.transport == DecodePlan::Transport::kAny &&
                   (p.tcp.has_value() || p.udp.has_value())) {}

  /// Length of the bytes the fields lie in (serializes nothing).
  std::size_t size() const {
    if (!serialize_) return p_.payload.size();
    return p_.payload.size() + (p_.tcp ? asp::net::TcpHeader::kWireSize
                                       : asp::net::UdpHeader::kWireSize);
  }
  /// A char, bool or int field in register form: the byte sign-extended,
  /// the byte as is (0 or 1 in a matching packet), the big-endian int32
  /// sign-extended. Inline: the JIT binds every scalar field it reads
  /// through here on every packet.
  std::int64_t scalar(DecodePlan::Field f) {
    const std::uint8_t* at = bytes().data() + f.offset;
    switch (f.op) {
      case DecodePlan::FieldOp::kChar: return static_cast<char>(*at);
      case DecodePlan::FieldOp::kBool: return *at;
      case DecodePlan::FieldOp::kInt:
        return static_cast<std::int32_t>(
            (std::uint32_t{at[0]} << 24) | (std::uint32_t{at[1]} << 16) |
            (std::uint32_t{at[2]} << 8) | at[3]);
      case DecodePlan::FieldOp::kBlob: break;
    }
    throw EvalBug{"payload field is not a scalar"};
  }
  /// A blob field: the bytes from its offset on.
  Blob blob(DecodePlan::Field f);
  /// Either, as a Value.
  Value value(DecodePlan::Field f);

 private:
  const std::vector<std::uint8_t>& bytes() {
    return serialize_ ? serialized() : p_.payload.bytes();
  }
  /// The transport header serialized in front of the payload, built once.
  const std::vector<std::uint8_t>& serialized();

  const asp::net::Packet& p_;
  const bool serialize_;
  Blob serialized_;
};

/// Decodes `p`, which must match `plan` (match_packet), as a value of the
/// plan's packet type; the engines decode only packets the runtime has
/// matched. `reuse` (optional) supplies tuple storage that is refilled in
/// place when uniquely owned — the interpreter's steady-state
/// zero-allocation path; when the previous packet's tuple is still alive
/// (e.g. stored into channel state) fresh pooled storage is used instead.
Value decode_matched(const asp::net::Packet& p, const DecodePlan& plan,
                     TupleRep* reuse = nullptr);

/// match_packet, then decode_matched: nullopt when `p` does not match.
std::optional<Value> decode_packet(const asp::net::Packet& p, const DecodePlan& plan);

/// Builds a packet from a packet value's fields, in order: the IP header,
/// an optional transport header, then the payload fields. The single rule
/// set behind encode_packet and the JIT's sends of rewritten packets.
class PacketBuilder {
 public:
  explicit PacketBuilder(const asp::net::IpHeader& ip, std::uint32_t chan_tag = 0);
  void tcp(const asp::net::TcpHeader& h);
  void udp(const asp::net::UdpHeader& h);
  void put_char(char c);
  void put_bool(bool b);
  void put_int(std::int64_t n);
  void put_blob(const Blob& b);
  asp::net::Packet finish();

 private:
  void flush_blob();

  asp::net::Packet p_;
  std::vector<std::uint8_t> bytes_;
  Blob sole_blob_;  // the payload while it is exactly one blob field
  int fields_ = 0;
};

/// Encodes a PLAN-P packet value back onto the wire, tagged with the interned
/// channel id `chan_tag` (net::ChannelTags; 0 = untagged, which the
/// distinguished `network` channel and deliver() use).
asp::net::Packet encode_packet(const Value& v, std::uint32_t chan_tag);

/// What encode_packet(decode_matched(p, plan), 0) builds, for a packet that
/// matches `plan`: the JIT's send of its unmodified packet. The common shapes
/// copy the headers and alias the payload; the rest take the round trip.
asp::net::Packet reemit_packet(const asp::net::Packet& p, const DecodePlan& plan);

}  // namespace asp::planp
