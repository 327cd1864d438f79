// Discrete-event scheduler: the heart of the simulator.
//
// Threading (DESIGN.md §6f): an EventQueue is SHARD-CONFINED. Under the
// parallel executor every shard owns one private queue, and only that
// shard's worker thread may call any method here — there is deliberately no
// internal locking. Cross-shard work never touches a foreign queue directly:
// it goes through a mailbox (net/mailbox.hpp) and is scheduled into the
// target queue by that queue's own shard thread after a window barrier.
// Single-shard programs are unaffected: one thread, one queue.
//
// Implementation (DESIGN.md §6h): a deterministic hierarchical calendar
// queue. Entries live in a pooled slab (chunks tagged mem::AllocTag::kEvent)
// and are ordered through 32-byte sort keys only — the payload (a SmallFn
// capture) never moves during ordering. Wheel cells keep their keys in
// fixed-size blocks from one queue-wide free list, so key storage follows
// the pending events. Scheduling is O(1), and every scheduled event runs:
// an owner that re-arms or abandons a timer supersedes it itself, through
// state the callback checks, and a superseded event runs as a no-op.
// Buckets drain in canonical (time, sched, rank, seq) order, byte-identical
// to the previous binary-heap implementation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/smallfn.hpp"
#include "net/time.hpp"

namespace asp::net {

/// Event callback type: move-only, with a 64-byte inline capture buffer (see
/// mem/smallfn.hpp). Every callback must fit inline — see the capture budget
/// note on EventQueue::Entry.
using EventFn = mem::SmallFn<64>;

/// A calendar queue of timestamped callbacks. Events at equal times run in
/// order of the clock at which they were scheduled, then in scheduling order
/// (FIFO) — which keeps simulations deterministic. In a serial run the two
/// rules coincide (now() never decreases, so FIFO sequence numbers already
/// order by schedule clock); the distinction only matters for cross-shard
/// merges, see net/exec.cpp.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to run at absolute time `t` (>= now()).
  void schedule_at(SimTime t, EventFn fn);

  /// Schedules `fn` at time `t` with an explicit tie-break key: `sched` is
  /// the sender's clock at transmit time and `rank` its topology index.
  /// Every point-to-point frame arrival goes through here, in BOTH serial
  /// and parallel runs, so that arrivals colliding to the nanosecond sort
  /// identically whether they were enqueued locally at transmit time
  /// (serial / same shard) or merged from a mailbox at a window barrier
  /// (cross-shard) — the determinism contract's canonical order (DESIGN.md
  /// §6f). schedule_at() is the special case (sched = now(), rank =
  /// UINT32_MAX).
  void schedule_ranked(SimTime t, SimTime sched, std::uint32_t rank, EventFn fn);

  /// Schedules `fn` to run `delay` after the current time.
  void schedule_in(SimTime delay, EventFn fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs events until the queue is empty or `limit` events have run.
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t limit = UINT64_MAX);

  /// Runs events with timestamps <= `t`; afterwards now() == t.
  std::uint64_t run_until(SimTime t);

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// True if no events remain.
  bool empty() const { return pending_ == 0; }

  /// Number of scheduled, not-yet-run events.
  std::size_t pending() const { return pending_; }

  /// Sentinel returned by next_event_time() when no event remains.
  static constexpr SimTime kNever = ~SimTime{0};

  /// Timestamp of the earliest event, or kNever. The parallel executor's
  /// coordinator reads this at window barriers to size the next safe window.
  SimTime next_event_time();

  // --- geometry ---------------------------------------------------------------
  // kLevels wheel levels of kBuckets buckets each; level L buckets are
  // 2^(kWidthLog2 + kBucketBits*L) ns wide (level 0: 1.024 µs). Level 0 is
  // sealed-and-run; upper levels cascade into finer levels when the cursor
  // reaches them. Events beyond the level-3 horizon (256 × 2^34 ns = 2^42 ns,
  // about 73 simulated minutes) wait in the lazily-partitioned far band.
  // Buckets only partition time and drain in canonical order, so the width
  // affects speed, never the order in which events run.
  static constexpr unsigned kWidthLog2 = 10;
  static constexpr unsigned kBucketBits = 8;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;  // 256
  static constexpr unsigned kLevels = 4;
  static constexpr std::size_t kBlockKeys = 32;  // keys per wheel-cell block

  /// Keys the calendar's storage can hold: its key blocks plus the sealed
  /// bucket's vector. A cell returns its blocks to one queue-wide free list
  /// when it seals or cascades, so the blocks hold at most the peak of
  /// pending events plus one partly filled block per wheel cell
  /// (DESIGN.md §6h).
  std::size_t key_capacity() const {
    return blocks_.size() * kBlockKeys + sorted_.capacity();
  }

 private:
  static constexpr std::size_t kChunkSlots = 256;  // slab slots per chunk

  // Capture budget: `fn` stores its capture inline up to EventFn::kInlineBytes
  // (64 bytes — a `this` pointer plus several shared_ptrs, or a pooled
  // Packet box handle, all fit). A larger capture does not compile. When a
  // callback needs a Packet, capture the pointer-sized net::PacketBox handle
  // (the one the packet already travels in, or a fresh net::packet_boxes()
  // box) instead of the 72-byte Packet (see medium.cpp / node.cpp).
  //
  // The slot's payload. Ordering fields live in Key, not here: the slab
  // entry is written once at schedule and read once at drain.
  struct Entry {
    EventFn fn;
    std::uint32_t next_free = 0;  // freelist link while free
  };

  // The 32-byte sort key — the only thing the calendar moves, sorts, or
  // heapifies. `seq` is the per-queue schedule sequence number: it plays
  // exactly the role the monotonically-issued id played in the old
  // comparator, so canonical order is bit-for-bit unchanged.
  struct Key {
    SimTime time;
    SimTime sched;
    std::uint64_t seq;
    std::uint32_t rank;
    std::uint32_t slot;
  };
  static bool key_less(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.sched != b.sched) return a.sched < b.sched;
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.seq < b.seq;
  }

  // A block of a wheel cell's keys, linked through `next` into the cell's
  // chain or onto the queue-wide free list.
  struct KeyBlock {
    KeyBlock* next = nullptr;
    std::uint32_t n = 0;  // keys held
    Key keys[kBlockKeys];
  };

  // One wheel cell. `num` is the absolute bucket number held (valid iff the
  // occupancy bit is set); the placement window guarantees at most one
  // absolute bucket maps to a cell at a time. Its keys fill a chain of
  // blocks from `head` (oldest) to `tail`, in placement order; an empty
  // cell holds no block.
  struct Cell {
    std::uint64_t num = 0;
    KeyBlock* head = nullptr;
    KeyBlock* tail = nullptr;
  };

  // --- slab -------------------------------------------------------------------
  Entry& slab(std::uint32_t slot) {
    return chunks_[slot >> 8][slot & (kChunkSlots - 1)];
  }
  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);

  // --- calendar ---------------------------------------------------------------
  void place(const Key& k);
  void push_key(Cell& c, const Key& k);  // appends to c's chain
  bool advance();                 // move cur_b_ to the next occupied bucket
  bool take_head(Key& out);       // consume the canonical head
  const Key* peek_head();         // canonical head without consuming, or null
  bool run_head();                // runs the canonical head; false if none

  SimTime now_ = 0;
  std::uint64_t seq_ = 1;         // canonical FIFO tie-break (old next_id_)
  std::size_t pending_ = 0;       // scheduled, not-yet-run entries

  // Drain cursor: absolute level-0 bucket number currently sealed. Entries
  // landing at or before it go to the incursion heap.
  std::uint64_t cur_b_ = 0;

  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::uint32_t free_head_ = UINT32_MAX;  // slab freelist head (slot index)

  std::vector<std::unique_ptr<KeyBlock>> blocks_;  // every key block
  KeyBlock* free_blocks_ = nullptr;  // key-block free list head

  std::vector<Key> sorted_;       // sealed current bucket, canonically sorted
  std::size_t spos_ = 0;          // consumption index into sorted_
  std::vector<Key> incur_;        // min-heap: entries at/behind the cursor
  std::vector<Key> far_;          // beyond the wheel horizon, unsorted
  SimTime far_min_ = kNever;

  Cell cells_[kLevels][kBuckets];
  std::uint64_t occ_[kLevels][kBuckets / 64] = {};
};

}  // namespace asp::net
