// Packet batches: the unit of the batched dispatch pipeline.
//
// A PacketBatch is a small fixed-capacity view over pooled Packet boxes
// (mem::BoxPool handles): the EventQueue's batch drain collects up to
// kCapacity same-timestamp deliveries bound for the same sink into one batch
// so the receiving runtime can amortize classification and JIT entry across
// packets (DESIGN.md §6c). Batching is purely mechanical: the members are
// processed in exactly the order the serial per-event path would have run
// them, so traces and counters stay byte-identical at any batch size.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "net/packet.hpp"

namespace asp::net {

/// A fixed-capacity sequence of in-flight packets, in canonical delivery
/// order. Holds pooled boxes, so draining a batch recycles each Packet's
/// storage exactly as the single-event path would.
class PacketBatch {
 public:
  using Box = mem::BoxPool<Packet>::Handle;

  /// Hard size limit; EventQueue::set_default_batch_limit() may choose any
  /// value in [1, kCapacity].
  static constexpr std::size_t kCapacity = 64;

  PacketBatch() = default;
  PacketBatch(PacketBatch&&) = default;
  PacketBatch& operator=(PacketBatch&&) = default;
  PacketBatch(const PacketBatch&) = delete;
  PacketBatch& operator=(const PacketBatch&) = delete;

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  bool full() const { return n_ == kCapacity; }

  /// Appends a boxed packet (caller guarantees !full()).
  void push(Box b) { boxes_[n_++] = std::move(b); }

  Packet& operator[](std::size_t i) { return *boxes_[i]; }
  const Packet& operator[](std::size_t i) const { return *boxes_[i]; }

  /// Moves the i-th box out (the slot becomes empty; size is unchanged —
  /// callers drain front to back and then clear()).
  Box take(std::size_t i) { return std::move(boxes_[i]); }

  /// Releases every remaining box back to the pool and empties the batch.
  void clear() {
    for (std::size_t i = 0; i < n_; ++i) boxes_[i].reset();
    n_ = 0;
  }

 private:
  std::array<Box, kCapacity> boxes_{};
  std::size_t n_ = 0;
};

/// Receiver side of the batched delivery path. A medium schedules deliveries
/// as (sink, key, box) entries; the EventQueue drains consecutive
/// same-timestamp entries with equal (sink, key) into one PacketBatch and
/// hands it over in canonical order. `key` disambiguates within a sink (the
/// receiving end of a p2p link, the sender slot on a segment).
///
/// Contract: deliveries scheduled through this path are NOT cancellable —
/// media discard the EventId (a delivery in flight has no owner to cancel
/// it), which is what lets the drain move boxes out eagerly.
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;
  virtual void deliver_batch(std::uint32_t key, PacketBatch&& batch) = 0;
};

}  // namespace asp::net
