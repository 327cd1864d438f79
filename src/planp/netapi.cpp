#include "planp/netapi.hpp"

namespace asp::planp {

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

/// Inverse of serialized_payload: splits the transport header back out of
/// the bytes, guided by ip.proto.
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

std::vector<std::uint8_t> serialized_payload(const asp::net::Packet& p) {
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

bool transport_in_payload(const asp::net::Packet& p, const DecodePlan& plan) {
  return plan.transport == DecodePlan::Transport::kAny &&
         (p.tcp.has_value() || p.udp.has_value());
}

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
  switch (plan.transport) {
    case DecodePlan::Transport::kTcp:
      if (p.ip.proto != asp::net::IpProto::kTcp || !p.tcp) return false;
      break;
    case DecodePlan::Transport::kUdp:
      if (p.ip.proto != asp::net::IpProto::kUdp || !p.udp) return false;
      break;
    case DecodePlan::Transport::kAny:
      break;
  }
  const bool transport_in_blob = transport_in_payload(p, plan);
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
      std::vector<std::uint8_t> rest = serialized_payload(p);
      for (std::uint32_t off : plan.bool_offsets) {
        if (rest[off] > 1) return false;
      }
    }
  }
  return true;
}

std::optional<Value> decode_packet(const asp::net::Packet& p, const DecodePlan& plan,
                                   TupleRep* reuse) {
  if (!plan.valid) return std::nullopt;
  switch (plan.transport) {
    case DecodePlan::Transport::kTcp:
      if (p.ip.proto != asp::net::IpProto::kTcp || !p.tcp) return std::nullopt;
      break;
    case DecodePlan::Transport::kUdp:
      if (p.ip.proto != asp::net::IpProto::kUdp || !p.udp) return std::nullopt;
      break;
    case DecodePlan::Transport::kAny:
      break;
  }
  const bool transport_in_blob = transport_in_payload(p, plan);

  // Steady-state storage reuse: when the caller's scratch tuple is uniquely
  // owned (the previous packet's decoded value has died), refill it in place;
  // otherwise fall back to pooled storage (e.g. the handler kept the tuple).
  TupleRep fields;
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
  if (transport_in_blob) scratch = serialized_payload(p);
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

PacketBuilder::PacketBuilder(const asp::net::IpHeader& ip, std::uint32_t chan_tag) {
  p_.ip = ip;
  p_.channel_tag = chan_tag;
}

void PacketBuilder::tcp(const asp::net::TcpHeader& h) {
  p_.tcp = h;
  p_.ip.proto = asp::net::IpProto::kTcp;
}

void PacketBuilder::udp(const asp::net::UdpHeader& h) {
  p_.udp = h;
  p_.ip.proto = asp::net::IpProto::kUdp;
}

void PacketBuilder::flush_blob() {
  if (sole_blob_ != nullptr) {
    bytes_.insert(bytes_.end(), sole_blob_->begin(), sole_blob_->end());
    sole_blob_ = nullptr;
  }
}

void PacketBuilder::put_char(char c) {
  flush_blob();
  bytes_.push_back(static_cast<std::uint8_t>(c));
  ++fields_;
}

void PacketBuilder::put_bool(bool b) {
  flush_blob();
  bytes_.push_back(b ? 1 : 0);
  ++fields_;
}

void PacketBuilder::put_int(std::int64_t n) {
  flush_blob();
  std::uint32_t u = static_cast<std::uint32_t>(n);
  put32(bytes_, u);
  ++fields_;
}

void PacketBuilder::put_blob(const Blob& b) {
  flush_blob();
  if (fields_ == 0) {
    sole_blob_ = b;
  } else {
    bytes_.insert(bytes_.end(), b->begin(), b->end());
  }
  ++fields_;
}

asp::net::Packet PacketBuilder::finish() {
  // Header-only values (ip*blob and friends) carry the transport header at
  // the front of the bytes; it must be split back out so the packet stays
  // whole.
  const bool needs_split =
      !p_.tcp && !p_.udp && p_.ip.proto != asp::net::IpProto::kRaw;
  // Fast path: the whole payload is one blob and needs no splitting — alias
  // the blob's buffer instead of copying it (the common re-emission shape:
  // OnRemote(chan, (hdr..., #n p)) forwards the arriving bytes untouched).
  if (sole_blob_ != nullptr && !needs_split) {
    p_.payload = asp::net::Payload(std::move(sole_blob_));
    return std::move(p_);
  }
  flush_blob();
  if (needs_split) {
    split_rest(p_, std::move(bytes_));
  } else {
    p_.payload = std::move(bytes_);
  }
  return std::move(p_);
}

asp::net::Packet encode_packet(const Value& v, std::uint32_t chan_tag) {
  const auto& fields = v.as_tuple();
  PacketBuilder b(fields[0].as_ip(), chan_tag);
  std::size_t i = 1;
  if (i < fields.size()) {
    if (const auto* tcp = std::get_if<asp::net::TcpHeader>(&fields[i].rep())) {
      b.tcp(*tcp);
      ++i;
    } else if (const auto* udp = std::get_if<asp::net::UdpHeader>(&fields[i].rep())) {
      b.udp(*udp);
      ++i;
    }
  }
  for (; i < fields.size(); ++i) {
    const auto& rep = fields[i].rep();
    if (const auto* c = std::get_if<char>(&rep)) {
      b.put_char(*c);
    } else if (const auto* f = std::get_if<bool>(&rep)) {
      b.put_bool(*f);
    } else if (const auto* n = std::get_if<std::int64_t>(&rep)) {
      b.put_int(*n);
    } else if (const auto* blob = std::get_if<Blob>(&rep)) {
      b.put_blob(*blob);
    } else {
      throw EvalBug{"encode_packet: unsupported payload field"};
    }
  }
  return b.finish();
}

asp::net::Packet reemit_packet(const asp::net::Packet& p, const DecodePlan& plan) {
  using asp::net::IpProto;
  // The shapes whose round trip through the tuple gives back the packet's own
  // headers and bytes: the decoded fields cover the whole payload (a trailing
  // blob, or scalars that fill it exactly), and the transport header is
  // either a typed field or splits back out of the bytes unchanged.
  const bool covers = plan.has_blob || plan.fixed_bytes == p.payload.size();
  asp::net::Packet q;
  q.ip = p.ip;
  bool same = false;
  switch (plan.transport) {
    case DecodePlan::Transport::kTcp:
      q.tcp = p.tcp;
      same = covers;
      break;
    case DecodePlan::Transport::kUdp:
      q.udp = p.udp;
      same = covers;
      break;
    case DecodePlan::Transport::kAny:
      if (!p.tcp && !p.udp) {
        same = covers && p.ip.proto == IpProto::kRaw;
      } else if (p.tcp && !p.udp && p.ip.proto == IpProto::kTcp) {
        q.tcp = p.tcp;
        same = plan.has_blob;
      } else if (p.udp && !p.tcp && p.ip.proto == IpProto::kUdp) {
        q.udp = p.udp;
        same = plan.has_blob;
      }
      break;
  }
  if (!same) return encode_packet(*decode_packet(p, plan), 0);
  q.payload = p.payload;
  return q;
}

}  // namespace asp::planp
