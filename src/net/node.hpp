// Nodes: hosts and routers with an IP stack that PLAN-P programs can replace.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/event.hpp"
#include "net/medium.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"

namespace asp::net {

class Node;
class TcpStack;

/// One routing table entry (16 bytes). `next_hop` unspecified means the
/// destination is directly attached to the interface's medium.
struct Route {
  Ipv4Addr prefix;
  /// Netmask of the prefix length, computed once by RoutingTable::add. Host
  /// bits set in `prefix` are ignored: the route covers the whole subnet.
  std::uint32_t mask = 0;
  int iface = 0;
  Ipv4Addr next_hop;

  int prefix_len() const { return std::popcount(mask); }
};
static_assert(sizeof(Route) == 16, "a route table's memory grows with Route");

/// Longest-prefix-match routing table. Routes live in one contiguous vector
/// kept sorted by prefix length (longest first, stable within a length), so
/// lookup is a forward scan that stops at the FIRST match — the
/// longest-prefix winner by construction, and the first-added among equal
/// prefixes. add() stores each route's mask, so testing an entry is an XOR
/// and a masked test, with no branch on the prefix length.
class RoutingTable {
 public:
  void add(Ipv4Addr prefix, int prefix_len, int iface, Ipv4Addr next_hop = {});
  void add_default(int iface, Ipv4Addr next_hop = {}) { add({}, 0, iface, next_hop); }
  /// The longest-prefix route for `dst`, or nullptr.
  const Route* lookup(Ipv4Addr dst) const {
    const std::uint32_t d = dst.bits();
    for (const Route& r : routes_) {
      if (((d ^ r.prefix.bits()) & r.mask) == 0) return &r;
    }
    return nullptr;
  }
  /// Routes in lookup order (longest prefix first), not insertion order.
  const std::vector<Route>& routes() const { return routes_; }

 private:
  std::vector<Route> routes_;  // sorted: prefix_len descending, stable
};

/// An unreliable datagram socket bound to a UDP port on a node.
class UdpSocket {
 public:
  using Handler = std::function<void(const Packet&)>;

  UdpSocket(Node& node, std::uint16_t port, Handler on_packet);
  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Sends one datagram. A std::vector converts implicitly; a pooled Buffer
  /// (acquire_buffer) passes through without a copy or an allocation.
  void send_to(Ipv4Addr dst, std::uint16_t dport, Payload payload);
  std::uint16_t port() const { return port_; }
  Node& node() { return node_; }
  void handle(const Packet& p) { if (on_packet_) on_packet_(p); }

 private:
  Node& node_;
  std::uint16_t port_;
  Handler on_packet_;
};

/// A simulated machine. A Node with `router()` set forwards IP packets between
/// its interfaces; hosts only source/sink traffic. The PLAN-P runtime attaches
/// via `set_ip_hook`, which sees every packet entering the IP layer — exactly
/// where the paper's Solaris kernel module sits (paper Figure 1).
///
/// Threading (DESIGN.md §6f): a Node is SHARD-CONFINED — it lives on exactly
/// one shard, and every method (receive, send_ip, forward, the statistics
/// accessors, TCP/UDP) must run on that shard's thread. Packets from other
/// shards arrive only via the owning medium's merged mailbox events, which
/// the executor schedules onto this node's queue; no foreign thread calls
/// into a Node directly. events() returns the owning shard's queue — always
/// schedule node-local work there, never on another node's queue. The
/// statistics counters stay plain fields for exactly this reason.
class Node {
 public:
  /// Hook result: consumed (the ASP handled the packet) or pass-through.
  using IpHook = std::function<bool(Packet&, Interface&)>;

  Node(EventQueue& events, std::string name);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Creation index within the owning Network (set by add_node). Used as the
  /// canonical tie-break rank for p2p frame deliveries — see
  /// EventQueue::schedule_ranked and DESIGN.md §6f. Standalone nodes keep 0.
  std::uint32_t topo_index() const { return topo_index_; }
  void set_topo_index(std::uint32_t i) { topo_index_ = i; }

  const std::string& name() const { return name_; }
  EventQueue& events() { return *events_; }

  /// Rebinds this node to a shard's private queue (barrier-only: called by
  /// the parallel executor at install time, before any worker runs).
  void bind_events(EventQueue& q) { events_ = &q; }

  /// Adds an interface with the given IP address; returns it. A connected
  /// route for the interface subnet (default /24) is installed automatically.
  ///
  /// Interfaces live in contiguous per-node storage (cache-compact: the whole
  /// receive/forward path indexes a flat array instead of chasing a deque of
  /// unique_ptrs). Growing the array can relocate the objects: attached media
  /// are repointed automatically (Medium::repoint), but a raw Interface& held
  /// by CALLER code is invalidated by a later add_interface on the SAME node —
  /// re-fetch via iface(i), or reserve_ifaces() the final count up front.
  Interface& add_interface(Ipv4Addr addr, int prefix_len = 24);
  /// Pre-sizes the interface array (topology generators know node degrees),
  /// guaranteeing no relocation for the next `n - iface_count()` adds.
  void reserve_ifaces(std::size_t n);
  Interface& iface(int i) { return ifaces_.at(static_cast<std::size_t>(i)); }
  const Interface& iface(int i) const {
    return ifaces_.at(static_cast<std::size_t>(i));
  }
  std::size_t iface_count() const { return ifaces_.size(); }

  /// True if `a` is one of this node's interface addresses.
  bool owns(Ipv4Addr a) const;
  /// The node's primary address (interface 0).
  Ipv4Addr addr() const;

  void set_router(bool r) { router_ = r; }
  bool router() const { return router_; }

  RoutingTable& routes() { return routes_; }
  const RoutingTable& routes() const { return routes_; }

  /// IGMP-lite: join/leave a multicast group (hosts). Flat sorted storage —
  /// membership checks are a binary search over contiguous addresses.
  void join_group(Ipv4Addr group) {
    auto it = std::lower_bound(groups_.begin(), groups_.end(), group);
    if (it == groups_.end() || *it != group) groups_.insert(it, group);
  }
  void leave_group(Ipv4Addr group) {
    auto it = std::lower_bound(groups_.begin(), groups_.end(), group);
    if (it != groups_.end() && *it == group) groups_.erase(it);
  }
  bool in_group(Ipv4Addr group) const {
    return std::binary_search(groups_.begin(), groups_.end(), group);
  }

  /// Multicast route: packets to `group` are forwarded out of `ifaces`.
  void add_mroute(Ipv4Addr group, std::vector<int> out_ifaces);

  /// Installs/clears the PLAN-P intercept for packets entering the IP layer.
  void set_ip_hook(IpHook hook) { ip_hook_ = std::move(hook); }

  /// Pure observers invoked on every received packet, before the hook
  /// (measurement taps for experiments; cannot consume or modify). Taps
  /// compose: each add_rx_tap appends to a multicast list, so a tracer and a
  /// metrics probe can watch the same node.
  using RxTap = std::function<void(const Packet&, const Interface&)>;
  void add_rx_tap(RxTap tap) {
    if (tap) rx_taps_.push_back(std::move(tap));
  }
  void clear_rx_taps() { rx_taps_.clear(); }

  /// Entry point from a medium: a boxed packet arrived on `in`. Counts it,
  /// shows it to the rx taps, offers it to the IP hook, and runs standard IP
  /// on it unless the hook consumed it. A forwarded packet leaves in the same
  /// box.
  void receive(PacketBox p, Interface& in);

  /// Sends a locally generated IP packet (boxes it, routes, then transmits).
  /// Packets addressed to this node loop back to local delivery.
  void send_ip(Packet p);

  /// Routes and transmits without local-delivery shortcut; used by routers
  /// and by the runtime's OnRemote. The Packet overload boxes the packet.
  void forward(PacketBox p);
  void forward(Packet&& p) { forward(packet_boxes().box(std::move(p))); }

  /// The node's TCP demultiplexer, created on the first call: a node that
  /// never uses TCP carries none. deliver_local() calls this too, so a
  /// segment to a node without listeners still draws the stack's RST.
  TcpStack& tcp();

  /// Hands a packet straight to the local transport layer (UDP/TCP demux),
  /// bypassing routing and the PLAN-P hook. Used by the runtime's deliver().
  void deliver_local(const Packet& p);

  // --- statistics -----------------------------------------------------------
  std::uint64_t dropped_no_route() const { return dropped_no_route_; }
  std::uint64_t dropped_ttl() const { return dropped_ttl_; }
  std::uint64_t dropped_no_listener() const { return dropped_no_listener_; }

  /// Fresh packet id (node-scoped uniqueness is enough for tracing).
  std::uint64_t next_packet_id() { return ++packet_seq_; }

 private:
  friend class UdpSocket;

  /// One multicast forwarding entry (sorted by group in mroutes_).
  struct MRoute {
    Ipv4Addr group;
    std::vector<int> out;
  };
  const std::vector<int>* mroute_lookup(Ipv4Addr group) const;
  UdpSocket* udp_lookup(std::uint16_t port) const;
  /// Standard IP processing, everything after the PLAN-P hook declined the
  /// packet: multicast handling, local delivery, router forwarding.
  void standard_ip(PacketBox p, Interface& in);

  EventQueue* events_;  // owning shard's queue (rebindable, never null)
  std::string name_;
  std::uint32_t topo_index_ = 0;
  // Flat per-node state (DESIGN.md §6g): interfaces by value in one
  // contiguous array; groups/mroutes/udp ports as sorted vectors instead of
  // node-per-entry trees. A 10^4-node topology walks these on every packet.
  std::vector<Interface> ifaces_;
  bool router_ = false;
  RoutingTable routes_;
  std::vector<Ipv4Addr> groups_;  // sorted
  std::vector<MRoute> mroutes_;   // sorted by group
  IpHook ip_hook_;
  std::vector<RxTap> rx_taps_;
  std::vector<std::pair<std::uint16_t, UdpSocket*>> udp_ports_;  // sorted by port
  std::unique_ptr<TcpStack> tcp_;  // null until the first tcp()

  // Received packets, counted only in the global registry
  // (node/<name>/net/rx_packets, accumulating process-wide); the drop causes
  // below are counted only here.
  obs::Counter* m_rx_packets_ = nullptr;

  std::uint64_t dropped_no_route_ = 0;
  std::uint64_t dropped_ttl_ = 0;
  std::uint64_t dropped_no_listener_ = 0;
  std::uint64_t packet_seq_ = 0;
};

}  // namespace asp::net
