#include "net/medium.hpp"

#include "net/node.hpp"

namespace asp::net {

void Interface::transmit(PacketBox p) {
  if (medium_ == nullptr) return;  // unplugged
  medium_->transmit(*this, std::move(p));
}

void Interface::transmit(Packet&& p) {
  if (medium_ == nullptr) return;
  medium_->transmit(*this, packet_boxes().box(std::move(p)));
}

void Interface::transmit(const Packet& p) {
  if (medium_ == nullptr) return;
  medium_->transmit(*this, packet_boxes().box(p));
}

Medium::Medium(EventQueue& events, std::string name, double bits_per_sec,
               SimTime delay, std::uint64_t queue_capacity_bytes)
    : events_(&events),
      name_(std::move(name)),
      bandwidth_bps_(bits_per_sec),
      delay_(delay),
      queue_capacity_(queue_capacity_bytes) {
  // Coarse mode (scenario-scale topologies) folds every medium into one
  // aggregate counter — see obs::instance_metrics_enabled().
  m_delivered_ = &obs::registry().counter(obs::instance_metrics_enabled()
                                              ? "medium/" + name_ + "/delivered_packets"
                                              : "medium/_agg/delivered_packets");
}

Medium::FramePlan Medium::plan_frame() {
  FramePlan f;
  if (roll(imp_.loss_rate)) {
    f.lost = true;
    return f;
  }
  f.corrupt = roll(imp_.corrupt_rate);
  if (roll(imp_.duplicate_rate)) f.copies = 2;
  if (imp_.jitter > 0) {
    for (int i = 0; i < f.copies; ++i) f.extra[i] = next_rng() % (imp_.jitter + 1);
  }
  return f;
}

void Medium::apply_corruption(Packet& p) {
  if (p.payload.empty()) return;  // headers are structured fields; only the
                                  // payload has bytes to flip
  std::uint64_t r = next_rng();
  std::vector<std::uint8_t>& bytes = p.mutable_payload();
  bytes[r % bytes.size()] ^= static_cast<std::uint8_t>((r >> 8) % 255 + 1);
  ++stats_.corrupted;
}

double PointToPointLink::utilization() {
  double bps = 0;
  for (std::unique_ptr<BandwidthMeter>& m : dir_meter_) {
    if (!m) m = std::make_unique<BandwidthMeter>(kNsPerSec / 2);
    bps += m->rate_bps(events_->now());
  }
  return bps / bandwidth_bps_;
}

void PointToPointLink::deliver_arrival(int end, PacketBox&& p) {
  if (!link_up()) {  // partition started while the frame was in flight
    ++stats_.dropped_down;
    return;
  }
  note_delivered(*p);
  Interface& in = *ends_[end];
  in.node()->receive(std::move(p), in);
}

void PointToPointLink::enqueue_arrival(EventQueue& q, SimTime t, SimTime sched,
                                       std::uint32_t rank, int end, PacketBox&& p) {
  // The capture (this, end, box handle) stays within the EventFn inline
  // budget.
  q.schedule_ranked(t, sched, rank, [this, end, box = std::move(p)]() mutable {
    deliver_arrival(end, std::move(box));
  });
}

void PointToPointLink::post_arrival(int end, PacketBox&& p, SimTime arrival) {
  if (cross_[end]) {
    // Receiving end lives on another shard: hand the frame to its mailbox
    // (the executor merges it and calls enqueue_arrival over there). The
    // message carries the packet itself, so this box stays on its shard.
    cross_[end](arrival, std::move(*p));
    return;
  }
  // The canonical (sender clock, sender topo index) tie-break: serial and
  // sharded runs order same-nanosecond arrivals identically (the cross-shard
  // path above carries exactly this key through the mailbox).
  Node* sender = ends_[1 - end]->node();
  enqueue_arrival(*events_, arrival, sender->events().now(), sender->topo_index(),
                  end, std::move(p));
}

void PointToPointLink::transmit(Interface& from, PacketBox p) {
  int dir = (&from == ends_[0]) ? 0 : 1;
  if (ends_[1 - dir] == nullptr) return;

  // The SENDER's clock: on a cut link each direction transmits from its own
  // shard, and events_ belongs to only one of them.
  SimTime now = from.node()->events().now();
  if (!link_up()) {
    ++stats_.dropped_down;
    return;
  }
  const std::size_t bytes = p->wire_size();
  SimTime serialize = tx_time(bytes, bandwidth_bps_);
  SimTime start = busy_until_[dir] > now ? busy_until_[dir] : now;
  // Backlog check: how much queueing (in time) would this packet see?
  SimTime backlog_limit = tx_time(queue_capacity_, bandwidth_bps_);
  if (start - now > backlog_limit) {
    ++stats_.dropped_queue;
    return;
  }
  busy_until_[dir] = start + serialize;
  if (dir_meter_[dir]) dir_meter_[dir]->record(now, bytes);
  // A lost frame still occupied the wire and counted toward the tx meters:
  // the sender offered the load whether or not it arrived.
  FramePlan plan = plan_frame();
  if (plan.lost) {
    ++stats_.dropped_loss;
    return;
  }
  if (plan.corrupt) apply_corruption(*p);
  if (plan.copies > 1) {
    ++stats_.duplicated;
    post_arrival(1 - dir, packet_boxes().box(*p),
                 busy_until_[dir] + delay_ + plan.extra[1]);
  }
  post_arrival(1 - dir, std::move(p), busy_until_[dir] + delay_ + plan.extra[0]);
}

void EthernetSegment::schedule_arrival(const Interface& from, PacketBox&& p,
                                       SimTime arrival) {
  // The sender is named by slot: an Interface* could dangle if its node's
  // interface array grows while the frame is in flight (repoint()).
  events_->schedule_at(arrival, [this, slot = from.medium_slot(),
                                 box = std::move(p)]() mutable {
    if (!link_up()) {  // partition started while the frame was in flight
      ++stats_.dropped_down;
      return;
    }
    deliver(*ifaces_[slot], std::move(box));
  });
}

void EthernetSegment::transmit(Interface& from, PacketBox p) {
  // Segments are never cut: events_ is always the sender's shard queue.
  SimTime now = events_->now();
  if (!link_up()) {
    ++stats_.dropped_down;
    return;
  }
  const std::size_t bytes = p->wire_size();
  SimTime serialize = tx_time(bytes, bandwidth_bps_);
  SimTime start = busy_until_ > now ? busy_until_ : now;
  SimTime backlog_limit = tx_time(queue_capacity_, bandwidth_bps_);
  if (start - now > backlog_limit) {
    ++stats_.dropped_queue;
    return;
  }
  busy_until_ = start + serialize;
  meter_.record(now, bytes);
  FramePlan plan = plan_frame();
  if (plan.lost) {
    ++stats_.dropped_loss;
    return;
  }
  if (plan.corrupt) apply_corruption(*p);
  if (plan.copies > 1) {
    ++stats_.duplicated;
    schedule_arrival(from, packet_boxes().box(*p), busy_until_ + delay_ + plan.extra[1]);
  }
  schedule_arrival(from, std::move(p), busy_until_ + delay_ + plan.extra[0]);
}

Interface* EthernetSegment::unicast_target(const Interface& from,
                                           const Packet& p) const {
  Ipv4Addr l2 = p.l2_next_hop.is_unspecified() ? p.ip.dst : p.l2_next_hop;
  for (Interface* iface : ifaces_) {
    if (iface != &from && iface->addr() == l2) return iface;
  }
  // No station owns the L2 address: fall back to the first gateway.
  for (Interface* iface : ifaces_) {
    if (iface != &from && iface->gateway()) return iface;
  }
  return nullptr;
}

void EthernetSegment::deliver(const Interface& from, PacketBox&& p) {
  // Fan-out discipline: every receiver but the last gets a COW copy in a box
  // of its own (aliasing the one payload buffer); the final receiver gets the
  // arriving box.
  auto hand_copy = [&](Interface* iface) {
    note_delivered(*p);
    iface->node()->receive(packet_boxes().box(*p), *iface);
  };
  auto hand_last = [&](Interface* iface) {
    note_delivered(*p);
    iface->node()->receive(std::move(p), *iface);
  };

  if (p->ip.dst.is_multicast()) {
    // Broadcast semantics: every other station sees the frame; the node
    // decides whether it cares (group membership / router / promiscuous).
    Interface* last = nullptr;
    for (Interface* iface : ifaces_) {
      if (iface == &from) continue;
      if (last != nullptr) hand_copy(last);
      last = iface;
    }
    if (last != nullptr) hand_last(last);
    return;
  }

  Interface* target = unicast_target(from, *p);
  // Promiscuous listeners see every frame regardless of addressing.
  for (Interface* iface : ifaces_) {
    if (iface != &from && iface != target && iface->promiscuous()) hand_copy(iface);
  }
  if (target != nullptr) {
    hand_last(target);
  } else {
    ++stats_.dropped_unaddressed;
  }
}

}  // namespace asp::net
