#include "net/node.hpp"

#include "net/tcp.hpp"

namespace asp::net {

void RoutingTable::add(Ipv4Addr prefix, int prefix_len, int iface, Ipv4Addr next_hop) {
  // Stable insert keeping masks descending (a longer prefix has a larger
  // mask): lookup's first match is the longest prefix, and first-added
  // still wins among equal lengths.
  const std::uint32_t mask = netmask(prefix_len);
  auto it = std::find_if(routes_.begin(), routes_.end(),
                         [&](const Route& r) { return r.mask < mask; });
  routes_.insert(it, Route{prefix, mask, iface, next_hop});
}

UdpSocket::UdpSocket(Node& node, std::uint16_t port, Handler on_packet)
    : node_(node), port_(port), on_packet_(std::move(on_packet)) {
  auto it = std::lower_bound(
      node_.udp_ports_.begin(), node_.udp_ports_.end(), port_,
      [](const auto& entry, std::uint16_t p) { return entry.first < p; });
  if (it != node_.udp_ports_.end() && it->first == port_) {
    it->second = this;  // last binder wins, as with the old map
  } else {
    node_.udp_ports_.insert(it, {port_, this});
  }
}

UdpSocket::~UdpSocket() {
  auto it = std::lower_bound(
      node_.udp_ports_.begin(), node_.udp_ports_.end(), port_,
      [](const auto& entry, std::uint16_t p) { return entry.first < p; });
  if (it != node_.udp_ports_.end() && it->first == port_ && it->second == this)
    node_.udp_ports_.erase(it);
}

void UdpSocket::send_to(Ipv4Addr dst, std::uint16_t dport, Payload payload) {
  Packet p = Packet::make_udp(node_.addr(), dst, port_, dport, std::move(payload));
  p.id = node_.next_packet_id();
  node_.send_ip(std::move(p));
}

Node::Node(EventQueue& events, std::string name)
    : events_(&events), name_(std::move(name)) {
  ifaces_.reserve(2);  // hosts and leaf routers never relocate
  // Coarse mode (scenario-scale topologies) folds every node into one shared
  // aggregate counter — see obs::instance_metrics_enabled().
  m_rx_packets_ = &obs::registry().counter(obs::instance_metrics_enabled()
                                               ? "node/" + name_ + "/net/rx_packets"
                                               : "node/_agg/net/rx_packets");
}

Node::~Node() = default;

TcpStack& Node::tcp() {
  if (!tcp_) tcp_ = std::make_unique<TcpStack>(*this);
  return *tcp_;
}

Interface& Node::add_interface(Ipv4Addr addr, int prefix_len) {
  if (ifaces_.size() == ifaces_.capacity()) {
    // Relocation: media hold raw Interface* into this array, so after the
    // grow every attached medium gets repointed at the fresh addresses.
    ifaces_.reserve(std::max<std::size_t>(2, ifaces_.capacity() * 2));
    for (Interface& ifc : ifaces_) {
      if (ifc.medium() != nullptr) ifc.medium()->repoint(ifc.medium_slot(), &ifc);
    }
  }
  ifaces_.emplace_back(this, static_cast<int>(ifaces_.size()));
  Interface& added = ifaces_.back();
  added.set_addr(addr);
  if (!addr.is_unspecified()) {
    routes_.add(Ipv4Addr{addr.bits() & netmask(prefix_len)}, prefix_len, added.index());
  }
  return added;
}

void Node::reserve_ifaces(std::size_t n) {
  if (n <= ifaces_.capacity()) return;
  ifaces_.reserve(n);
  for (Interface& ifc : ifaces_) {
    if (ifc.medium() != nullptr) ifc.medium()->repoint(ifc.medium_slot(), &ifc);
  }
}

void Node::add_mroute(Ipv4Addr group, std::vector<int> out_ifaces) {
  auto it = std::lower_bound(
      mroutes_.begin(), mroutes_.end(), group,
      [](const MRoute& m, Ipv4Addr g) { return m.group < g; });
  if (it != mroutes_.end() && it->group == group) {
    it->out = std::move(out_ifaces);  // replace, as with the old map
  } else {
    mroutes_.insert(it, MRoute{group, std::move(out_ifaces)});
  }
}

const std::vector<int>* Node::mroute_lookup(Ipv4Addr group) const {
  auto it = std::lower_bound(
      mroutes_.begin(), mroutes_.end(), group,
      [](const MRoute& m, Ipv4Addr g) { return m.group < g; });
  if (it != mroutes_.end() && it->group == group) return &it->out;
  return nullptr;
}

UdpSocket* Node::udp_lookup(std::uint16_t port) const {
  auto it = std::lower_bound(
      udp_ports_.begin(), udp_ports_.end(), port,
      [](const auto& entry, std::uint16_t p) { return entry.first < p; });
  if (it != udp_ports_.end() && it->first == port) return it->second;
  return nullptr;
}

bool Node::owns(Ipv4Addr a) const {
  for (const Interface& i : ifaces_) {
    if (i.addr() == a) return true;
  }
  return false;
}

Ipv4Addr Node::addr() const { return ifaces_.empty() ? Ipv4Addr{} : ifaces_[0].addr(); }

void Node::receive(PacketBox p, Interface& in) {
  m_rx_packets_->inc();
  for (const RxTap& tap : rx_taps_) tap(*p, in);
  // The PLAN-P layer sees the packet before the standard IP behaviour.
  if (ip_hook_ && ip_hook_(*p, in)) return;
  standard_ip(std::move(p), in);
}

void Node::standard_ip(PacketBox p, Interface& in) {
  if (p->ip.dst.is_multicast()) {
    if (in_group(p->ip.dst)) deliver_local(*p);
    if (router_) {
      const std::vector<int>* outs = mroute_lookup(p->ip.dst);
      if (outs != nullptr && p->ip.ttl > 1) {
        for (int out : *outs) {
          if (out == in.index()) continue;
          PacketBox copy = packet_boxes().box(*p);
          --copy->ip.ttl;
          copy->l2_next_hop = Ipv4Addr{};
          iface(out).transmit(std::move(copy));
        }
      }
    }
    return;
  }

  if (owns(p->ip.dst)) {
    deliver_local(*p);
    return;
  }

  if (!router_) return;  // hosts drop transit traffic (non-promiscuous default)

  if (p->ip.ttl <= 1) {
    ++dropped_ttl_;
    return;
  }
  --p->ip.ttl;
  forward(std::move(p));
}

void Node::forward(PacketBox p) {
  if (p->ip.dst.is_multicast()) {
    const std::vector<int>* found = mroute_lookup(p->ip.dst);
    static const std::vector<int> kDefaultOut{0};
    const std::vector<int>& outs = found != nullptr ? *found : kDefaultOut;  // hosts: iface 0
    if (ifaces_.empty()) {
      ++dropped_no_route_;
      return;
    }
    for (int out : outs) {
      PacketBox copy = packet_boxes().box(*p);
      copy->l2_next_hop = Ipv4Addr{};
      iface(out).transmit(std::move(copy));
    }
    return;
  }
  const Route* r = routes_.lookup(p->ip.dst);
  if (r == nullptr) {
    ++dropped_no_route_;
    return;
  }
  p->l2_next_hop = r->next_hop;
  iface(r->iface).transmit(std::move(p));
}

void Node::send_ip(Packet p) {
  if (p.id == 0) p.id = next_packet_id();
  PacketBox box = packet_boxes().box(std::move(p));
  if (owns(box->ip.dst)) {
    // Loopback: the box handle keeps the capture within the EventFn inline
    // buffer.
    events_->schedule_in(0, [this, box = std::move(box)] { deliver_local(*box); });
    return;
  }
  forward(std::move(box));
}

void Node::deliver_local(const Packet& p) {
  if (p.ip.proto == IpProto::kUdp && p.udp) {
    if (UdpSocket* sock = udp_lookup(p.udp->dport)) {
      sock->handle(p);
      return;
    }
    ++dropped_no_listener_;
    return;
  }
  if (p.ip.proto == IpProto::kTcp && p.tcp) {
    if (!tcp().on_packet(p)) ++dropped_no_listener_;
    return;
  }
  ++dropped_no_listener_;
}

}  // namespace asp::net
