// Packet <-> PLAN-P value conversion.
//
// A channel over `ip*tcp*char*int` sees a TCP packet as a 4-tuple whose
// payload has been decoded into a char then a big-endian int32 (paper Figure 4
// relies on this to dispatch on the first payload byte). Scalar payload fields
// are decoded in order; a trailing `blob` takes the rest.
//
// The interpreter decodes each packet into that tuple and encodes what it
// sends. The JIT reads the arriving packet in place and builds what it sends
// straight from its typed frame (PacketBuilder, reemit_packet); both follow
// the same wire rules, which live here once.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "planp/types.hpp"
#include "planp/value.hpp"

namespace asp::planp {

/// Compiled decode recipe for one channel packet type. The walk over the
/// type tree happens once, at install time, so the per-packet path runs a
/// flat loop over field ops (the "parser" stage of the match-action
/// pipeline, DESIGN.md §6c). Built once per channel by compile_decode_plan.
struct DecodePlan {
  /// kAny = header-only pattern (`ip*...`): accepts any transport, the
  /// transport header rides at the front of the logical payload bytes.
  enum class Transport : std::uint8_t { kAny, kTcp, kUdp };
  enum class FieldOp : std::uint8_t { kChar, kBool, kInt, kBlob };

  Transport transport = Transport::kAny;
  std::vector<FieldOp> fields;            // payload fields, in order
  std::vector<std::uint32_t> bool_offsets;  // strict-encoding check offsets
  std::uint32_t fixed_bytes = 0;          // bytes consumed by scalar fields
  bool has_blob = false;                  // trailing blob takes the rest
  bool valid = false;                     // false: type can never decode
  std::uint16_t arity = 0;                // decoded tuple arity
};

/// Compiles `type` (a packet tuple type) into a flat decode plan.
DecodePlan compile_decode_plan(const TypePtr& type);

/// Validation only: true iff decode_packet(p, plan, ...) would succeed.
/// Checks transport shape, payload length and strict-bool bytes without
/// materializing a tuple. The runtime calls it before every channel run;
/// both engines require a matching packet.
bool match_packet(const asp::net::Packet& p, const DecodePlan& plan);

/// True when a packet matching `plan` carries its transport header inside
/// the payload bytes the plan reads (a header-only plan on a TCP or UDP
/// packet): those bytes are then serialized_payload(p), not p.payload.
bool transport_in_payload(const asp::net::Packet& p, const DecodePlan& plan);

/// The transport header serialized in front of the payload: what an
/// `ip*blob` channel sees as its blob.
std::vector<std::uint8_t> serialized_payload(const asp::net::Packet& p);

/// Decodes `p` as a value of the plan's packet type. Returns nullopt when the
/// packet does not match (wrong protocol, payload too short, ...). `reuse`
/// (optional) supplies tuple storage that is refilled in place when uniquely
/// owned — the interpreter's steady-state zero-allocation path; when the
/// previous packet's tuple is still alive (e.g. stored into channel state)
/// fresh pooled storage is used instead.
std::optional<Value> decode_packet(const asp::net::Packet& p, const DecodePlan& plan,
                                   TupleRep* reuse = nullptr);

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

/// What encode_packet(*decode_packet(p, plan), 0) builds, for a packet that
/// matches `plan`: the JIT's send of its unmodified packet. The common shapes
/// copy the headers and alias the payload; the rest take the round trip.
asp::net::Packet reemit_packet(const asp::net::Packet& p, const DecodePlan& plan);

}  // namespace asp::planp
