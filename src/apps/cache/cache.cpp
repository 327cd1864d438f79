#include "apps/cache/cache.hpp"

#include <cstring>

namespace asp::apps {

using asp::net::Ipv4Addr;
using asp::net::Packet;
using asp::net::SimTime;
using asp::net::UdpSocket;

std::vector<std::uint8_t> cache_response_body(const std::string& path) {
  std::string head = "RSP " + path + " ";
  std::uint32_t content = size_from_path(path);
  std::vector<std::uint8_t> out;
  out.reserve(head.size() + content);
  out.assign(head.begin(), head.end());
  std::uint64_t h = planp::CacheStore::fnv1a(path.data(), path.size());
  for (std::uint32_t i = 0; i < content; ++i) {
    out.push_back(static_cast<std::uint8_t>('a' + ((h >> (8 * (i % 8))) + i) % 26));
  }
  return out;
}

namespace {

/// "GET <path>" / "RSP <path> ..." -> <path>; "" when the shape is wrong.
std::string second_word(const net::Payload& payload) {
  const std::uint8_t* d = payload.data();
  std::size_t n = payload.size();
  std::size_t start = 0;
  while (start < n && d[start] != ' ') ++start;
  if (start == n) return "";
  ++start;  // past the separator
  std::size_t end = start;
  while (end < n && d[end] != ' ' && d[end] != '\n') ++end;
  return std::string(reinterpret_cast<const char*>(d + start), end - start);
}

bool starts_with(const net::Payload& payload, const char* prefix) {
  std::size_t len = std::strlen(prefix);
  return payload.size() >= len && std::memcmp(payload.data(), prefix, len) == 0;
}

}  // namespace

CacheOrigin::CacheOrigin(asp::net::Node& node) : node_(node) {
  sock_ = std::make_unique<UdpSocket>(node_, kCachePort, [this](const Packet& p) {
    if (!p.udp || !starts_with(p.payload, "GET ")) return;
    std::string path = second_word(p.payload);
    if (path.empty()) return;
    std::vector<std::uint8_t> body = cache_response_body(path);
    ++served_;
    bytes_sent_ += body.size();
    sock_->send_to(p.ip.src, p.udp->sport, std::move(body));
  });
}

CacheClientPool::CacheClientPool(asp::net::Node& node, asp::net::Ipv4Addr origin,
                                 std::vector<TraceEntry> trace, int processes)
    : node_(node), origin_(origin), trace_(std::move(trace)) {
  procs_.reserve(static_cast<std::size_t>(processes));
  for (int i = 0; i < processes; ++i) {
    auto proc = std::make_unique<Proc>();
    std::size_t idx = procs_.size();
    proc->sock = std::make_unique<UdpSocket>(
        node_, static_cast<std::uint16_t>(kCacheClientPort + i),
        [this, idx](const Packet& p) {
          Proc& me = *procs_[idx];
          if (me.outstanding.empty() || !starts_with(p.payload, "RSP ")) return;
          if (second_word(p.payload) != me.outstanding) return;  // stale reply
          ++completed_;
          bytes_received_ += p.payload.size();
          total_latency_ms_ +=
              static_cast<double>(node_.events().now() - me.issued) / 1e6;
          if (on_response_) on_response_(me.outstanding, p.payload.bytes());
          me.outstanding.clear();
          ++me.epoch;
          issue(idx);
        });
    procs_.push_back(std::move(proc));
  }
}

void CacheClientPool::start() {
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    // Slight stagger so request bursts do not align in the same microsecond.
    node_.events().schedule_in(asp::net::micros(137) * static_cast<SimTime>(i),
                               [this, i] { issue(i); });
  }
}

void CacheClientPool::issue(std::size_t proc) {
  if (trace_.empty()) return;
  Proc& me = *procs_[proc];
  const TraceEntry& entry = trace_[next_entry_++ % trace_.size()];
  me.outstanding = entry.path;
  me.issued = node_.events().now();
  std::uint64_t epoch = me.epoch;
  me.sock->send_to(origin_, kCachePort, net::bytes_of("GET " + entry.path));

  // Watchdog: a request whose response is lost (chaos runs impair links) is
  // abandoned and the process moves on. One second dwarfs the millisecond
  // RTTs of the rigs while keeping lossy closed loops moving. The epoch
  // check voids the timer when the response did arrive and later requests
  // are in flight.
  node_.events().schedule_in(asp::net::seconds(1), [this, proc, epoch] {
    Proc& p = *procs_[proc];
    if (p.epoch == epoch && !p.outstanding.empty()) {
      p.outstanding.clear();
      ++p.epoch;
      ++failed_;
      issue(proc);
    }
  });
}

NativeCacheProxy::NativeCacheProxy(asp::net::Node& router, asp::net::Ipv4Addr origin,
                                   std::size_t entries, std::int64_t ttl_ms)
    : node_(router), origin_(origin) {
  store_.configure(entries, ttl_ms);
  node_.set_ip_hook([this](Packet& p, asp::net::Interface&) { return on_packet(p); });
}

bool NativeCacheProxy::on_packet(Packet& p) {
  if (!p.udp) return false;
  std::int64_t now_ms = static_cast<std::int64_t>(node_.events().now() / 1000000u);

  // Request toward the origin: serve a fresh copy locally if we hold one.
  if (p.ip.dst == origin_ && p.udp->dport == kCachePort &&
      starts_with(p.payload, "GET ")) {
    std::uint64_t key =
        planp::CacheStore::key_of("GET", origin_.bits(), second_word(p.payload));
    if (const net::Buffer* body = store_.lookup(key, now_ms)) {
      Packet reply = Packet::make_udp(origin_, p.ip.src, kCachePort, p.udp->sport,
                                      net::Payload(*body));  // aliases the cache
      reply.id = node_.next_packet_id();
      node_.forward(std::move(reply));
      return true;  // consumed: the origin never sees it
    }
    return false;  // miss: standard forwarding takes it to the origin
  }

  // Response from the origin passing through: fill, then let it continue.
  if (p.ip.src == origin_ && p.udp->sport == kCachePort &&
      starts_with(p.payload, "RSP ")) {
    std::uint64_t key =
        planp::CacheStore::key_of("GET", origin_.bits(), second_word(p.payload));
    store_.store(key, p.payload.buffer(), now_ms);
  }
  return false;
}

}  // namespace asp::apps
