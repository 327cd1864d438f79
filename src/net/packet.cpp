#include "net/packet.hpp"

#include <deque>
#include <mutex>
#include <unordered_map>

#include "mem/shard.hpp"

namespace asp::net {

Buffer make_buffer(std::vector<std::uint8_t> bytes) {
  // Allocated non-const (the Buffer alias adds the const): Payload::mutate()
  // may cast it away again once it proves the buffer is unshared. The pool
  // adopts the storage, so release recycles it instead of freeing it.
  return mem::buffer_pool().adopt(std::move(bytes));
}

Buffer acquire_buffer(std::size_t capacity_hint) {
  return mem::buffer_pool().acquire(capacity_hint);
}

const Buffer& Payload::empty_buffer() {
  static const Buffer empty = make_buffer({});
  return empty;
}

std::vector<std::uint8_t>& Payload::mutate() {
  // use_count covers both other Payloads and blob Values aliasing the bytes;
  // the shared empty buffer always has extra refs, so it is never written.
  if (buf_.use_count() != 1) {
    // Clone into a pooled buffer (freelist storage, no heap in steady state).
    auto clone = mem::buffer_pool().acquire(buf_->size());
    clone->assign(buf_->begin(), buf_->end());
    buf_ = std::move(clone);
  }
  return const_cast<std::vector<std::uint8_t>&>(*buf_);
}

namespace {

// Interning is cold (runtime install time) but can happen on any shard
// thread, so the table takes a mutex; names live in a deque so the
// references name_of() hands out stay stable across later interns.
struct TagTable {
  std::mutex mu;
  std::unordered_map<std::string, std::uint32_t> ids;
  std::deque<std::string> names{""};  // id 0 = untagged
};

TagTable& tag_table() {
  static TagTable t;
  return t;
}

}  // namespace

std::uint32_t ChannelTags::intern(const std::string& name) {
  if (name.empty()) return 0;
  TagTable& t = tag_table();
  std::lock_guard<std::mutex> lock(t.mu);
  auto [it, inserted] = t.ids.try_emplace(name, static_cast<std::uint32_t>(t.names.size()));
  if (inserted) t.names.push_back(name);
  return it->second;
}

const std::string& ChannelTags::name_of(std::uint32_t id) {
  TagTable& t = tag_table();
  std::lock_guard<std::mutex> lock(t.mu);
  if (id >= t.names.size()) return t.names[0];
  return t.names[id];
}

Packet Packet::make_udp(Ipv4Addr src, Ipv4Addr dst, std::uint16_t sport,
                        std::uint16_t dport, Payload payload) {
  Packet p;
  p.ip.src = src;
  p.ip.dst = dst;
  p.ip.proto = IpProto::kUdp;
  p.udp = UdpHeader{sport, dport};
  p.payload = std::move(payload);
  return p;
}

Packet Packet::make_tcp(Ipv4Addr src, Ipv4Addr dst, const TcpHeader& hdr,
                        Payload payload) {
  Packet p;
  p.ip.src = src;
  p.ip.dst = dst;
  p.ip.proto = IpProto::kTcp;
  p.tcp = hdr;
  p.payload = std::move(payload);
  return p;
}

Packet Packet::make_raw(Ipv4Addr src, Ipv4Addr dst, Payload payload) {
  Packet p;
  p.ip.src = src;
  p.ip.dst = dst;
  p.ip.proto = IpProto::kRaw;
  p.payload = std::move(payload);
  return p;
}

// Shard-local slot: each shard boxes packets out of its own instance (leaked
// with its ShardPools); a box released across a shard boundary — or during
// static destruction — rides the remote-free list home.
mem::BoxPool<Packet>& packet_boxes() {
  return mem::slot_pool<mem::BoxPool<Packet>>("packet_box", mem::AllocTag::kEvent);
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

std::string string_of(const std::vector<std::uint8_t>& b) {
  return {b.begin(), b.end()};
}

std::string string_of(const Payload& p) { return string_of(p.bytes()); }

}  // namespace asp::net
