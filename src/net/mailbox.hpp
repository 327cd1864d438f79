// Cross-shard mailbox: the only channel through which a frame moves between
// shards of a parallel run (DESIGN.md §6f).
//
// Threading model: during a window, any shard thread whose node transmits on
// a cut link push()es into the RECEIVING shard's mailbox. push() is lock-free
// (a Treiber-stack CAS) and never blocks an event handler. drain() belongs to
// the receiving shard's thread and runs after the window barrier; the
// executor keeps one mailbox per window parity, so the mailbox being drained
// has no concurrent pushers. Arrival order out of drain() is unspecified —
// the receiver sorts messages by their ordering key
// (arrival, sent, sender_topo, seq) before scheduling, which is what makes a
// sharded run byte-identical to the serial one.
//
// Messages are pooled: the sender takes one from its own shard's pool
// (cross_msg_boxes()), and the receiver's release rides that pool's
// remote-free channel home (mem/pool.hpp), so a cut-link frame never touches
// the heap in steady state.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "mem/pool.hpp"
#include "net/packet.hpp"
#include "net/time.hpp"

namespace asp::net {

class PointToPointLink;

/// One frame in flight across a shard boundary, plus the key the receiver
/// sorts on when merging a window's mailbox.
struct CrossShardMsg {
  // Treiber link. Plain: the head CAS (release) and the drain exchange
  // (acquire) order every link written before the push.
  CrossShardMsg* next = nullptr;

  SimTime arrival = 0;            ///< absolute delivery time at the receiver
  SimTime sent = 0;               ///< sender shard's clock at transmit
  std::uint32_t sender_topo = 0;  ///< creation index of the sending node
  std::uint64_t seq = 0;          ///< per-sender-shard push counter
  PointToPointLink* link = nullptr;
  int end = 0;  ///< receiving end index on `link`

  Packet packet;
};

/// Owning handle to a pooled CrossShardMsg; destroying it recycles the
/// message into the pool it came from.
using CrossShardBox = mem::BoxPool<CrossShardMsg>::Handle;

/// The calling shard's message pool (a mem::ShardPools slot, like
/// packet_boxes()). Owner thread only.
mem::BoxPool<CrossShardMsg>& cross_msg_boxes();

/// Lock-free MPSC mailbox (multi-producer push, single consumer drain).
class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;
  ~Mailbox() {
    std::vector<CrossShardBox> left;
    drain(left);  // recycled as `left` dies
  }

  /// Any shard thread, any time during a window.
  void push(CrossShardBox box) {
    CrossShardMsg* m = box.release();
    CrossShardMsg* h = head_.load(std::memory_order_relaxed);
    do {
      m->next = h;
    } while (!head_.compare_exchange_weak(h, m, std::memory_order_release,
                                          std::memory_order_relaxed));
  }

  /// Consumer only, with no concurrent pushers. Appends every queued message
  /// to `out` in unspecified order.
  void drain(std::vector<CrossShardBox>& out) {
    CrossShardMsg* m = head_.exchange(nullptr, std::memory_order_acquire);
    while (m != nullptr) {
      CrossShardMsg* next = m->next;
      out.emplace_back(m);
      m = next;
    }
  }

  bool empty() const { return head_.load(std::memory_order_acquire) == nullptr; }

 private:
  // Own cache line: every sender shard CASes it during a window.
  alignas(64) std::atomic<CrossShardMsg*> head_{nullptr};
};

}  // namespace asp::net
