#include "runtime/netapi.hpp"

namespace asp::runtime {

using planp::Type;
using planp::TypePtr;
using planp::Value;

namespace {

void put16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}
void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put16(out, static_cast<std::uint16_t>(v >> 16));
  put16(out, static_cast<std::uint16_t>(v));
}
std::uint16_t get16(const std::uint8_t* b) {
  return static_cast<std::uint16_t>((b[0] << 8) | b[1]);
}
std::uint32_t get32(const std::uint8_t* b) {
  return (static_cast<std::uint32_t>(get16(b)) << 16) | get16(b + 2);
}

/// Serializes the transport header in front of the payload: an `ip*blob`
/// channel sees "everything after the IP header" as the blob, so re-emitting
/// the blob reconstructs the whole packet (e.g. the learning bridge).
std::vector<std::uint8_t> raw_rest(const asp::net::Packet& p) {
  std::vector<std::uint8_t> out;
  if (p.tcp) {
    out.reserve(asp::net::TcpHeader::kWireSize + p.payload.size());
    put16(out, p.tcp->sport);
    put16(out, p.tcp->dport);
    put32(out, p.tcp->seq);
    put32(out, p.tcp->ack);
    out.push_back(p.tcp->flags);
    out.push_back(0);  // header-length/reserved placeholder
    put16(out, p.tcp->wnd);
    put32(out, 0);  // checksum + urgent placeholder
  } else if (p.udp) {
    out.reserve(asp::net::UdpHeader::kWireSize + p.payload.size());
    put16(out, p.udp->sport);
    put16(out, p.udp->dport);
    put16(out, static_cast<std::uint16_t>(p.payload.size() + 8));
    put16(out, 0);  // checksum placeholder
  }
  out.insert(out.end(), p.payload.begin(), p.payload.end());
  return out;
}

/// Inverse of raw_rest: splits the transport header back out of the blob,
/// guided by ip.proto.
void split_rest(asp::net::Packet& p, std::vector<std::uint8_t> rest) {
  if (p.ip.proto == asp::net::IpProto::kTcp &&
      rest.size() >= asp::net::TcpHeader::kWireSize) {
    asp::net::TcpHeader h;
    h.sport = get16(rest.data());
    h.dport = get16(rest.data() + 2);
    h.seq = get32(rest.data() + 4);
    h.ack = get32(rest.data() + 8);
    h.flags = rest[12];
    h.wnd = get16(rest.data() + 14);
    p.tcp = h;
    rest.erase(rest.begin(), rest.begin() + asp::net::TcpHeader::kWireSize);
    p.payload = std::move(rest);
    return;
  }
  if (p.ip.proto == asp::net::IpProto::kUdp &&
      rest.size() >= asp::net::UdpHeader::kWireSize) {
    p.udp = asp::net::UdpHeader{get16(rest.data()), get16(rest.data() + 2)};
    rest.erase(rest.begin(), rest.begin() + asp::net::UdpHeader::kWireSize);
    p.payload = std::move(rest);
    return;
  }
  p.ip.proto = asp::net::IpProto::kRaw;
  p.payload = std::move(rest);
}

}  // namespace

DecodePlan compile_decode_plan(const TypePtr& type) {
  DecodePlan plan;
  const auto& parts = type->args();
  plan.arity = static_cast<std::uint16_t>(parts.size());
  std::size_t i = 1;  // parts[0] is the ip header
  if (i < parts.size() && parts[i]->is(Type::Kind::kTcp)) {
    plan.transport = DecodePlan::Transport::kTcp;
    ++i;
  } else if (i < parts.size() && parts[i]->is(Type::Kind::kUdp)) {
    plan.transport = DecodePlan::Transport::kUdp;
    ++i;
  }
  plan.valid = true;
  for (; i < parts.size(); ++i) {
    switch (parts[i]->kind()) {
      case Type::Kind::kChar:
        plan.fields.push_back(DecodePlan::FieldOp::kChar);
        plan.fixed_bytes += 1;
        break;
      case Type::Kind::kBool:
        plan.fields.push_back(DecodePlan::FieldOp::kBool);
        plan.bool_offsets.push_back(plan.fixed_bytes);
        plan.fixed_bytes += 1;
        break;
      case Type::Kind::kInt:
        plan.fields.push_back(DecodePlan::FieldOp::kInt);
        plan.fixed_bytes += 4;
        break;
      case Type::Kind::kBlob:
        plan.fields.push_back(DecodePlan::FieldOp::kBlob);
        plan.has_blob = true;
        break;
      default:
        // A payload field that has no wire decoding: the channel can never
        // match, which match_packet reports without per-packet work.
        plan.valid = false;
        return plan;
    }
  }
  return plan;
}

bool match_packet(const asp::net::Packet& p, const DecodePlan& plan) {
  if (!plan.valid) return false;
  bool transport_in_blob = false;
  switch (plan.transport) {
    case DecodePlan::Transport::kTcp:
      if (p.ip.proto != asp::net::IpProto::kTcp || !p.tcp) return false;
      break;
    case DecodePlan::Transport::kUdp:
      if (p.ip.proto != asp::net::IpProto::kUdp || !p.udp) return false;
      break;
    case DecodePlan::Transport::kAny:
      transport_in_blob = p.tcp.has_value() || p.udp.has_value();
      break;
  }
  std::size_t hdr = 0;
  if (transport_in_blob) {
    hdr = p.tcp ? asp::net::TcpHeader::kWireSize : asp::net::UdpHeader::kWireSize;
  }
  if (plan.fixed_bytes > hdr + p.payload.size()) return false;
  if (!plan.bool_offsets.empty()) {
    // Strict bool encoding is part of matching. Offsets inside a serialized
    // transport header are rare (header-only pattern with scalar fields);
    // that slow path materializes the bytes exactly like decode would.
    if (hdr == 0) {
      const auto& bytes = p.payload.bytes();
      for (std::uint32_t off : plan.bool_offsets) {
        if (bytes[off] > 1) return false;
      }
    } else {
      std::vector<std::uint8_t> rest = raw_rest(p);
      for (std::uint32_t off : plan.bool_offsets) {
        if (rest[off] > 1) return false;
      }
    }
  }
  return true;
}

std::optional<Value> decode_packet(const asp::net::Packet& p, const DecodePlan& plan,
                                   planp::TupleRep* reuse) {
  if (!plan.valid) return std::nullopt;
  bool transport_in_blob = false;
  switch (plan.transport) {
    case DecodePlan::Transport::kTcp:
      if (p.ip.proto != asp::net::IpProto::kTcp || !p.tcp) return std::nullopt;
      break;
    case DecodePlan::Transport::kUdp:
      if (p.ip.proto != asp::net::IpProto::kUdp || !p.udp) return std::nullopt;
      break;
    case DecodePlan::Transport::kAny:
      transport_in_blob = p.tcp.has_value() || p.udp.has_value();
      break;
  }

  // Steady-state storage reuse: when the caller's scratch tuple is uniquely
  // owned (the previous packet's decoded value has died), refill it in place;
  // otherwise fall back to pooled storage (e.g. the handler kept the tuple).
  planp::TupleRep fields;
  if (reuse != nullptr && *reuse != nullptr && reuse->use_count() == 1 &&
      (*reuse)->capacity() >= plan.arity) {
    fields = *reuse;
    fields->clear();
  } else {
    fields = Value::make_tuple_storage(plan.arity);
    if (reuse != nullptr) *reuse = fields;
  }

  fields->push_back(Value::of_ip(p.ip));
  if (plan.transport == DecodePlan::Transport::kTcp) {
    fields->push_back(Value::of_tcp(*p.tcp));
  } else if (plan.transport == DecodePlan::Transport::kUdp) {
    fields->push_back(Value::of_udp(*p.udp));
  }

  std::vector<std::uint8_t> scratch;
  if (transport_in_blob) scratch = raw_rest(p);
  const std::vector<std::uint8_t>& rest =
      transport_in_blob ? scratch : p.payload.bytes();

  std::size_t off = 0;
  for (DecodePlan::FieldOp op : plan.fields) {
    switch (op) {
      case DecodePlan::FieldOp::kChar:
        if (off + 1 > rest.size()) return std::nullopt;
        fields->push_back(Value::of_char(static_cast<char>(rest[off])));
        off += 1;
        break;
      case DecodePlan::FieldOp::kBool:
        if (off + 1 > rest.size()) return std::nullopt;
        if (rest[off] > 1) return std::nullopt;  // strict bool encoding
        fields->push_back(Value::of_bool(rest[off] != 0));
        off += 1;
        break;
      case DecodePlan::FieldOp::kInt: {
        if (off + 4 > rest.size()) return std::nullopt;
        std::int32_t v = static_cast<std::int32_t>(
            (std::uint32_t{rest[off]} << 24) | (std::uint32_t{rest[off + 1]} << 16) |
            (std::uint32_t{rest[off + 2]} << 8) | rest[off + 3]);
        fields->push_back(Value::of_int(v));
        off += 4;
        break;
      }
      case DecodePlan::FieldOp::kBlob: {
        const std::size_t blob_off = off;
        off = rest.size();
        if (!transport_in_blob && blob_off == 0) {
          fields->push_back(Value::of_blob_shared(p.payload.buffer()));
        } else if (transport_in_blob && blob_off == 0) {
          fields->push_back(Value::of_blob(std::move(scratch)));
        } else {
          fields->push_back(Value::of_blob(std::vector<std::uint8_t>(
              rest.begin() + static_cast<std::ptrdiff_t>(blob_off), rest.end())));
        }
        break;
      }
    }
  }
  return Value::of_tuple_rep(std::move(fields));
}

asp::net::Packet encode_packet(const Value& v, std::uint32_t chan_tag) {
  const auto& fields = v.as_tuple();
  asp::net::Packet p;
  p.ip = fields[0].as_ip();
  p.channel_tag = chan_tag;

  std::size_t i = 1;
  if (i < fields.size()) {
    if (const auto* tcp = std::get_if<asp::net::TcpHeader>(&fields[i].rep())) {
      p.tcp = *tcp;
      p.ip.proto = asp::net::IpProto::kTcp;
      ++i;
    } else if (const auto* udp = std::get_if<asp::net::UdpHeader>(&fields[i].rep())) {
      p.udp = *udp;
      p.ip.proto = asp::net::IpProto::kUdp;
      ++i;
    }
  }

  // Header-only values (ip*blob and friends) carry the transport header at
  // the front of the bytes; it must be split back out so the packet stays
  // whole.
  const bool needs_split =
      !p.tcp && !p.udp && p.ip.proto != asp::net::IpProto::kRaw;

  // Fast path: the whole payload is one blob and needs no splitting — alias
  // the blob's buffer instead of copying it (the common re-emission shape:
  // OnRemote(chan, (hdr..., #n p)) forwards the arriving bytes untouched).
  if (i + 1 == fields.size() && !needs_split) {
    if (const auto* blob = std::get_if<planp::Blob>(&fields[i].rep())) {
      p.payload = asp::net::Payload(*blob);
      return p;
    }
  }

  std::vector<std::uint8_t> out;
  for (; i < fields.size(); ++i) {
    const auto& rep = fields[i].rep();
    if (const auto* c = std::get_if<char>(&rep)) {
      out.push_back(static_cast<std::uint8_t>(*c));
    } else if (const auto* b = std::get_if<bool>(&rep)) {
      out.push_back(*b ? 1 : 0);
    } else if (const auto* n = std::get_if<std::int64_t>(&rep)) {
      std::uint32_t u = static_cast<std::uint32_t>(*n);
      out.push_back(static_cast<std::uint8_t>(u >> 24));
      out.push_back(static_cast<std::uint8_t>(u >> 16));
      out.push_back(static_cast<std::uint8_t>(u >> 8));
      out.push_back(static_cast<std::uint8_t>(u));
    } else if (const auto* blob = std::get_if<planp::Blob>(&rep)) {
      out.insert(out.end(), (*blob)->begin(), (*blob)->end());
    } else {
      throw planp::EvalBug{"encode_packet: unsupported payload field"};
    }
  }
  if (needs_split) {
    split_rest(p, std::move(out));
  } else {
    p.payload = std::move(out);
  }
  return p;
}

}  // namespace asp::runtime
