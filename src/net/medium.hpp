// Transmission media: point-to-point links and shared Ethernet segments.
//
// Threading (DESIGN.md §6f): a medium normally lives on one shard — the
// partitioner never splits an EthernetSegment (all stations share busy state
// and one RNG stream), and never splits a PointToPointLink that carries
// impairments (the RNG draw order must stay serial). The only object touched
// from two shards is a CUT point-to-point link: each direction's transmit
// runs on its sender's thread (own busy_until_ slot and direction meter) and
// hands the frame to the receiving shard through a mailbox poster. The
// members shared across a cut — link_up_, delivered/drop counters — are
// relaxed atomics; everything else stays shard-confined. The direction
// meters are created by the first utilization() call, which is barrier-only
// on a cut link, so the window barrier orders their creation before either
// shard's next transmit.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/event.hpp"
#include "net/impairments.hpp"
#include "net/meter.hpp"
#include "net/packet.hpp"
#include "net/time.hpp"
#include "obs/metrics.hpp"

namespace asp::net {

class Node;
class Medium;

/// A network interface: the attachment point between a Node and a Medium.
/// Shard-confined to its node's shard.
class Interface {
 public:
  Interface(Node* node, int index) : node_(node), index_(index) {}

  Node* node() const { return node_; }
  int index() const { return index_; }
  Medium* medium() const { return medium_; }
  void attach(Medium* m) { medium_ = m; }

  /// The node's IP address on this interface.
  Ipv4Addr addr() const { return addr_; }
  void set_addr(Ipv4Addr a) { addr_ = a; }

  /// Promiscuous interfaces receive all frames on a shared segment, not just
  /// those addressed to them (used by the MPEG monitor/capture ASPs, §3.3).
  bool promiscuous() const { return promiscuous_; }
  void set_promiscuous(bool p) { promiscuous_ = p; }

  /// Router interfaces pick up frames whose IP destination is off-segment.
  bool gateway() const { return gateway_; }
  void set_gateway(bool g) { gateway_ = g; }

  /// Hands a boxed packet to the attached medium for transmission; the
  /// forwarding path passes the box it received. The Packet overloads box
  /// the packet first: the rvalue one moves it in, the lvalue one copies it
  /// (cheaply, since the payload is copy-on-write).
  void transmit(PacketBox p);
  void transmit(Packet&& p);
  void transmit(const Packet& p);

  /// Attachment slot on the owning medium (set by the medium at attach time).
  /// Stable across interface relocation, so in-flight frames name their
  /// sender by slot rather than by Interface* (see Medium::repoint).
  std::uint32_t medium_slot() const { return medium_slot_; }
  void set_medium_slot(std::uint32_t s) { medium_slot_ = s; }

 private:
  Node* node_;
  int index_;
  std::uint32_t medium_slot_ = 0;
  Medium* medium_ = nullptr;
  Ipv4Addr addr_;
  bool promiscuous_ = false;
  bool gateway_ = false;
};

/// Base class for transmission media.
class Medium {
 public:
  Medium(EventQueue& events, std::string name, double bits_per_sec, SimTime delay,
         std::uint64_t queue_capacity_bytes);
  virtual ~Medium() = default;

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Transmits the boxed packet `p` from interface `from`. May drop on queue
  /// overflow. The box rides the arrival event to the receiving node.
  /// Callable from `from`'s owning shard only (for a cut link that means
  /// either endpoint shard, each confined to its own direction).
  virtual void transmit(Interface& from, PacketBox p) = 0;

  /// Interface-relocation fixup: nodes store interfaces by value in a growable
  /// array (Node::add_interface), so an attached Interface can move. The node
  /// calls repoint(slot, fresh) for each attached interface after a grow;
  /// `slot` is the value Interface::medium_slot() held at attach time.
  /// Setup-time only (topology construction is single-threaded).
  virtual void repoint(std::uint32_t /*slot*/, Interface* /*fresh*/) {}

  /// Rebinds the medium's scheduling queue (barrier-only: executor install
  /// time). Link-state flips and intra-shard deliveries land on this queue.
  void bind_events(EventQueue& q) { events_ = &q; }
  EventQueue& events() { return *events_; }

  const std::string& name() const { return name_; }
  double bandwidth_bps() const { return bandwidth_bps_; }
  SimTime delay() const { return delay_; }

  /// Delivered totals (relaxed atomics: exact at barriers / end of run).
  std::uint64_t delivered_packets() const { return delivered_packets_.load(); }
  std::uint64_t delivered_bytes() const { return delivered_bytes_.load(); }

  // --- fault injection --------------------------------------------------------

  /// Installs an impairment configuration and reseeds the medium's random
  /// stream from `imp.seed` (two media with the same config, traffic and seed
  /// replay identically).
  void set_impairments(const Impairments& imp) {
    imp_ = imp;
    rng_ = imp.seed != 0 ? imp.seed : 1;  // xorshift state must be nonzero
  }
  /// Mutable access for mid-run schedule changes (rates/jitter only; this
  /// does NOT reseed, so the random stream keeps its position).
  Impairments& impairments() { return imp_; }
  const Impairments& impairments() const { return imp_; }

  /// Link state. A down link drops frames at transmission *and* kills frames
  /// still in flight when it goes down (their arrival finds the link down).
  /// Atomic: both endpoint shards of a cut link read it on their fast paths.
  bool link_up() const { return link_up_.load(std::memory_order_relaxed); }
  void set_link_up(bool up) { link_up_.store(up, std::memory_order_relaxed); }
  /// Schedules a link-state flip at absolute time `at` (on the owning
  /// shard's queue; the new state is visible to the peer shard from its next
  /// window).
  void schedule_link_state(SimTime at, bool up) {
    events_->schedule_at(at, [this, up] { set_link_up(up); });
  }
  /// Schedules one outage (partition): down at `down_at`, back up at `up_at`.
  void schedule_outage(SimTime down_at, SimTime up_at) {
    schedule_link_state(down_at, false);
    schedule_link_state(up_at, true);
  }

  /// Per-cause drop/duplication/corruption counts.
  const ImpairmentStats& impairment_stats() const { return stats_; }
  std::uint64_t dropped_queue() const { return stats_.dropped_queue; }
  std::uint64_t dropped_loss() const { return stats_.dropped_loss; }
  std::uint64_t dropped_down() const { return stats_.dropped_down; }
  std::uint64_t dropped_unaddressed() const { return stats_.dropped_unaddressed; }
  std::uint64_t duplicated_packets() const { return stats_.duplicated; }
  std::uint64_t corrupted_packets() const { return stats_.corrupted; }
  /// Legacy aggregate: every frame that failed to reach a receiver.
  std::uint64_t dropped_packets() const { return stats_.total_dropped(); }

  /// Current utilization in [0,1]: carried bits over the meter window
  /// relative to capacity. Shard-confined: call from the medium's owning
  /// shard only (for a cut link, barrier-only — it reads both direction
  /// meters).
  virtual double utilization() = 0;

 protected:
  /// The impairment dice for one frame, rolled in a fixed order (loss,
  /// corruption, duplication, per-copy jitter) so the stream is deterministic
  /// for a fixed configuration.
  struct FramePlan {
    bool lost = false;
    bool corrupt = false;
    int copies = 1;          // 2 when duplicated
    SimTime extra[2] = {0, 0};  // per-copy delivery jitter
  };
  FramePlan plan_frame();

  /// Flips one payload byte in place (no-op on empty payloads) and counts it.
  void apply_corruption(Packet& p);

  std::uint64_t next_rng() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }
  /// One Bernoulli draw; consumes randomness only when `rate > 0`.
  bool roll(double rate) {
    if (rate <= 0) return false;
    return static_cast<double>(next_rng() % 1'000'000) < rate * 1e6;
  }

  void note_delivered(const Packet& p) {
    ++delivered_packets_;
    delivered_bytes_ += p.wire_size();
    m_delivered_->inc();
  }

  EventQueue* events_;  // owning shard's queue (rebindable, never null)
  std::string name_;
  double bandwidth_bps_;
  SimTime delay_;
  std::uint64_t queue_capacity_;  // bytes of backlog allowed beyond the wire
  obs::RelaxedU64 delivered_packets_;  // cut links count from both shards
  obs::RelaxedU64 delivered_bytes_;
  Impairments imp_;        // shard-confined (impaired media are never cut)
  ImpairmentStats stats_;  // relaxed atomics (see impairments.hpp)
  std::atomic<bool> link_up_{true};
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;  // shard-confined (never cut)

  // The delivered count's second copy, in the global registry
  // (medium/<name>/delivered_packets), for readers that sum the registry.
  obs::Counter* m_delivered_ = nullptr;
};

/// Full-duplex point-to-point link between exactly two interfaces.
///
/// The duplex directions are independent: direction d (sender ends_[d]) has
/// its own busy_until_ slot and carried-traffic meter, all written only from
/// the sender's shard. That is what makes a clean link CUTTABLE by the
/// parallel executor: its delay() becomes cross-shard lookahead, and each
/// direction's deliveries are posted to the receiving shard's mailbox
/// through the installed poster instead of the local queue.
class PointToPointLink : public Medium {
 public:
  PointToPointLink(EventQueue& events, std::string name, double bits_per_sec,
                   SimTime delay, std::uint64_t queue_capacity_bytes = 64 * 1024)
      : Medium(events, std::move(name), bits_per_sec, delay, queue_capacity_bytes) {}

  void connect(Interface& a, Interface& b) {
    ends_[0] = &a;
    ends_[1] = &b;
    a.set_medium_slot(0);
    b.set_medium_slot(1);
    a.attach(this);
    b.attach(this);
  }

  void repoint(std::uint32_t slot, Interface* fresh) override {
    ends_[slot] = fresh;
  }

  void transmit(Interface& from, PacketBox p) override;

  Interface* end(int i) const { return ends_[i]; }

  /// Sums both direction meters (barrier-only on a cut link). The first
  /// call creates the meters and so reads 0; a link nobody reads records
  /// nothing per frame. Later calls cover the traffic carried since then
  /// (the meter divides by the time since its first sample, so a late
  /// meter reads like a cold one).
  double utilization() override;

  /// Poster for frames whose receiving end lives on another shard. Invoked
  /// on the SENDER's thread with the computed arrival time; the executor's
  /// implementation enqueues into the receiver shard's mailbox. Barrier-only
  /// install (executor setup), `end` is the RECEIVING end index.
  using CrossShardPoster = std::function<void(SimTime arrival, Packet&& p)>;
  void set_cross_poster(int end, CrossShardPoster f) { cross_[end] = std::move(f); }

  /// Enqueues the arrival of `p` at receiving end `end` as one event on `q`
  /// at time `t`, with the canonical tie-break key (`sched`, `rank`): the
  /// sender's clock at transmit time and its topology index. Both the local
  /// path of transmit() and the executor's mailbox merge call this, so a
  /// delivery sorts and runs the same whichever shard enqueues it. The
  /// event captures the box; the merge's Packet overload boxes the packet
  /// on the receiving shard.
  void enqueue_arrival(EventQueue& q, SimTime t, SimTime sched, std::uint32_t rank,
                       int end, PacketBox&& p);
  void enqueue_arrival(EventQueue& q, SimTime t, SimTime sched, std::uint32_t rank,
                       int end, Packet&& p) {
    enqueue_arrival(q, t, sched, rank, end, packet_boxes().box(std::move(p)));
  }

 private:
  /// Local arrivals go to enqueue_arrival, cross-shard ones to the poster.
  void post_arrival(int end, PacketBox&& p, SimTime arrival);
  /// Arrival half of a delivery: link-state check, delivered accounting,
  /// hand-off of the box to the receiving node.
  void deliver_arrival(int end, PacketBox&& p);

  Interface* ends_[2] = {nullptr, nullptr};
  SimTime busy_until_[2] = {0, 0};       // per direction (sender-shard state)
  // Per direction, written by the sender's shard; null until the first
  // utilization() call creates both.
  std::unique_ptr<BandwidthMeter> dir_meter_[2];
  CrossShardPoster cross_[2];            // indexed by receiving end
};

/// Shared half-duplex Ethernet segment: every attached interface contends for
/// the same capacity; frames are addressed by IP (our L2 is implicit ARP).
/// Never cut: busy_until_ and the RNG stream are shared by every station, so
/// the partitioner keeps all attached nodes on one shard.
class EthernetSegment : public Medium {
 public:
  EthernetSegment(EventQueue& events, std::string name, double bits_per_sec,
                  SimTime delay = micros(50),
                  std::uint64_t queue_capacity_bytes = 128 * 1024)
      : Medium(events, std::move(name), bits_per_sec, delay, queue_capacity_bytes) {}

  void attach(Interface& iface) {
    iface.set_medium_slot(static_cast<std::uint32_t>(ifaces_.size()));
    ifaces_.push_back(&iface);
    iface.attach(this);
  }

  void transmit(Interface& from, PacketBox p) override;

  void repoint(std::uint32_t slot, Interface* fresh) override {
    ifaces_[slot] = fresh;
  }

  const std::vector<Interface*>& interfaces() const { return ifaces_; }

  /// Carried-traffic meter (all senders), recording from the first frame:
  /// the §3.1 router ASP reads its segment from the first audio packet.
  /// Shard-confined (meters mutate on read).
  BandwidthMeter& meter() { return meter_; }

  double utilization() override {
    return meter_.rate_bps(events_->now()) / bandwidth_bps_;
  }

 private:
  void schedule_arrival(const Interface& from, PacketBox&& p, SimTime arrival);
  void deliver(const Interface& from, PacketBox&& p);
  /// Unicast receiver for `p` sent by `from` (L2 hint, then gateway
  /// fallback), or nullptr when no station claims it.
  Interface* unicast_target(const Interface& from, const Packet& p) const;

  std::vector<Interface*> ifaces_;
  SimTime busy_until_ = 0;  // shared medium
  BandwidthMeter meter_{kNsPerSec / 2};
};

}  // namespace asp::net
