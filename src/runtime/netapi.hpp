// Packet <-> PLAN-P value conversion.
//
// A channel over `ip*tcp*char*int` sees a TCP packet as a 4-tuple whose
// payload has been decoded into a char then a big-endian int32 (paper Figure 4
// relies on this to dispatch on the first payload byte). Scalar payload fields
// are decoded in order; a trailing `blob` takes the rest.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "planp/types.hpp"
#include "planp/value.hpp"

namespace asp::runtime {

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
DecodePlan compile_decode_plan(const planp::TypePtr& type);

/// Validation only: true iff decode_packet(p, plan, ...) would succeed.
/// Checks transport shape, payload length and strict-bool bytes without
/// materializing a tuple — the match-only half of match-action dispatch,
/// used when the channel body never reads its packet argument.
bool match_packet(const asp::net::Packet& p, const DecodePlan& plan);

/// Decodes `p` as a value of the plan's packet type. Returns nullopt when the
/// packet does not match (wrong protocol, payload too short, ...). `reuse`
/// (optional) supplies tuple storage that is refilled in place when uniquely
/// owned — the steady-state zero-allocation path for match-action dispatch;
/// when the previous packet's tuple is still alive (e.g. stored into channel
/// state) fresh pooled storage is used instead.
std::optional<planp::Value> decode_packet(const asp::net::Packet& p,
                                          const DecodePlan& plan,
                                          planp::TupleRep* reuse = nullptr);

/// Encodes a PLAN-P packet value back onto the wire, tagged with the interned
/// channel id `chan_tag` (net::ChannelTags; 0 = untagged, which the
/// distinguished `network` channel and deliver() use).
asp::net::Packet encode_packet(const planp::Value& v, std::uint32_t chan_tag);

}  // namespace asp::runtime
