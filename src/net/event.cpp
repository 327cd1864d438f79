#include "net/event.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "mem/pool.hpp"

namespace asp::net {

namespace {

/// Circular occupancy scan: first set bit among the 256 ring positions
/// starting at `from` (inclusive), in circular order, or -1 if none. The
/// caller's placement window is at most 256 buckets wide, so circular order
/// from just-past-the-cursor IS ascending bucket-number order.
int scan_ring(const std::uint64_t* occ, unsigned from) {
  for (unsigned step = 0; step < 5; ++step) {
    const unsigned w = ((from >> 6) + step) & 3;
    std::uint64_t bits = occ[w];
    if (step == 0) {
      bits &= ~std::uint64_t{0} << (from & 63);
    } else if (step == 4) {
      const unsigned r = from & 63;
      bits &= r ? (std::uint64_t{1} << r) - 1 : 0;
    }
    if (bits != 0) return static_cast<int>(w * 64 + std::countr_zero(bits));
  }
  return -1;
}

}  // namespace

// --- slab ---------------------------------------------------------------------

std::uint32_t EventQueue::alloc_slot() {
  if (free_head_ == UINT32_MAX) {
    // Grow by one chunk, attributed to the event subsystem like every pool
    // refill (bench_fastpath / bench_event difference the counter around
    // their measured loops; steady state allocates nothing).
    mem::ScopedAllocTag tag(mem::AllocTag::kEvent);
    chunks_.push_back(std::make_unique<Entry[]>(kChunkSlots));
    mem::note_event_slab_chunk(kChunkSlots * sizeof(Entry));
    const std::uint32_t base =
        static_cast<std::uint32_t>((chunks_.size() - 1) * kChunkSlots);
    // Thread the freelist so slots pop in ascending order.
    for (std::size_t i = kChunkSlots; i-- > 0;) {
      Entry& e = chunks_.back()[i];
      e.next_free = free_head_;
      free_head_ = base + static_cast<std::uint32_t>(i);
    }
  }
  const std::uint32_t slot = free_head_;
  free_head_ = slab(slot).next_free;
  return slot;
}

void EventQueue::free_slot(std::uint32_t slot) {
  slab(slot).next_free = free_head_;
  free_head_ = slot;
}

// --- scheduling ---------------------------------------------------------------

void EventQueue::schedule_at(SimTime t, EventFn fn) {
  assert(t >= now_ && "cannot schedule in the past");
  if (t < now_) t = now_;
  schedule_ranked(t, now_, UINT32_MAX, std::move(fn));
}

void EventQueue::schedule_ranked(SimTime t, SimTime sched, std::uint32_t rank,
                                 EventFn fn) {
  assert(t >= now_ && "cannot schedule in the past");
  const std::uint32_t slot = alloc_slot();
  slab(slot).fn = std::move(fn);
  ++pending_;
  place(Key{t, sched, seq_++, rank, slot});
}

// --- calendar -----------------------------------------------------------------

// Routes a key to its home: the incursion heap when it lands at or behind
// the drain cursor (a handler scheduling into the bucket being drained, or a
// run_until() peek having moved the cursor past now_), else the finest wheel
// level whose 256-bucket window reaches it, else the far band.
void EventQueue::place(const Key& k) {
  const std::uint64_t b0 = k.time >> kWidthLog2;
  if (b0 <= cur_b_) {
    incur_.push_back(k);
    std::push_heap(incur_.begin(), incur_.end(),
                   [](const Key& a, const Key& b) { return key_less(b, a); });
    return;
  }
  for (unsigned L = 0; L < kLevels; ++L) {
    const std::uint64_t bL = k.time >> (kWidthLog2 + kBucketBits * L);
    const std::uint64_t curL = cur_b_ >> (kBucketBits * L);
    if (bL - curL <= kBuckets) {
      // All occupied cells at level L hold bucket numbers in
      // (curL, curL + 256] — 256 consecutive values with unique residues —
      // so the cell either is empty or already holds exactly this bucket.
      const unsigned idx = static_cast<unsigned>(bL & (kBuckets - 1));
      Cell& c = cells_[L][idx];
      const std::uint64_t bit = std::uint64_t{1} << (idx & 63);
      if ((occ_[L][idx >> 6] & bit) == 0) {
        occ_[L][idx >> 6] |= bit;
        c.num = bL;
      }
      assert(c.num == bL && "wheel cell residue collision");
      push_key(c, k);
      return;
    }
  }
  far_.push_back(k);
  if (k.time < far_min_) far_min_ = k.time;
}

// Appends `k` to the cell's chain, taking a block off the free list when the
// tail block is full. A block is allocated only when the free list is empty,
// so the blocks allocated are the most ever in use at once: the keys then
// pending plus at most one partly filled block per occupied cell.
void EventQueue::push_key(Cell& c, const Key& k) {
  KeyBlock* b = c.tail;
  if (b == nullptr || b->n == kBlockKeys) {
    if (free_blocks_ != nullptr) {
      b = free_blocks_;
      free_blocks_ = b->next;
    } else {
      mem::ScopedAllocTag tag(mem::AllocTag::kEvent);
      blocks_.push_back(std::make_unique<KeyBlock>());
      b = blocks_.back().get();
    }
    b->next = nullptr;
    b->n = 0;
    if (c.tail != nullptr) {
      c.tail->next = b;
    } else {
      c.head = b;
    }
    c.tail = b;
  }
  b->keys[b->n++] = k;
}

// Moves the drain cursor to the next occupied bucket: seals the nearest
// level-0 bucket (sorting it canonically) after cascading any upper-level
// bucket or far-band prefix that starts at or before it. Tie order — far
// band, then coarser levels first — guarantees no entry that belongs inside
// a sealed range is still parked somewhere coarser. Returns false when the
// calendar holds nothing (the incursion heap may still).
bool EventQueue::advance() {
  for (;;) {
    SimTime best_start = kNever;
    int best_level = -1;  // -1 none; kLevels means "refill from far band"
    unsigned best_idx = 0;
    for (unsigned L = 0; L < kLevels; ++L) {
      const std::uint64_t curL = cur_b_ >> (kBucketBits * L);
      const int idx =
          scan_ring(occ_[L], static_cast<unsigned>((curL + 1) & (kBuckets - 1)));
      if (idx < 0) continue;
      const SimTime start = cells_[L][idx].num << (kWidthLog2 + kBucketBits * L);
      if (start <= best_start) {  // ties: prefer coarser
        best_start = start;
        best_level = static_cast<int>(L);
        best_idx = static_cast<unsigned>(idx);
      }
    }
    if (far_min_ != kNever) {
      const SimTime fstart = (far_min_ >> kWidthLog2) << kWidthLog2;
      if (fstart <= best_start) best_level = static_cast<int>(kLevels);
    }
    if (best_level < 0) return false;

    if (best_level == static_cast<int>(kLevels)) {
      // Refill: stand just before the band minimum's bucket and pull in
      // everything the wheel horizon now covers (lazily partitioned — the
      // remainder is rescanned at the next refill).
      cur_b_ = (far_min_ >> kWidthLog2) - 1;
      SimTime new_min = kNever;
      std::size_t w = 0;
      for (std::size_t i = 0; i < far_.size(); ++i) {
        const Key k = far_[i];
        const std::uint64_t b3 = k.time >> (kWidthLog2 + kBucketBits * (kLevels - 1));
        const std::uint64_t cur3 = cur_b_ >> (kBucketBits * (kLevels - 1));
        if (b3 - cur3 <= kBuckets) {
          place(k);
        } else {
          if (k.time < new_min) new_min = k.time;
          far_[w++] = k;
        }
      }
      far_.resize(w);
      far_min_ = new_min;
      continue;
    }

    const unsigned L = static_cast<unsigned>(best_level);
    Cell& c = cells_[L][best_idx];
    occ_[L][best_idx >> 6] &= ~(std::uint64_t{1} << (best_idx & 63));
    KeyBlock* chain = c.head;
    KeyBlock* const last = c.tail;
    c.head = c.tail = nullptr;
    if (L == 0) {
      // Seal: copy the keys out and give the whole chain back at once.
      cur_b_ = c.num;
      sorted_.clear();
      spos_ = 0;
      {
        mem::ScopedAllocTag tag(mem::AllocTag::kEvent);  // sorted_ growth
        for (const KeyBlock* b = chain; b != nullptr; b = b->next) {
          sorted_.insert(sorted_.end(), b->keys, b->keys + b->n);
        }
      }
      last->next = free_blocks_;
      free_blocks_ = chain;
      std::sort(sorted_.begin(), sorted_.end(),
                [](const Key& a, const Key& b) { return key_less(a, b); });
      return true;
    }
    // Cascade: every key in the coarse bucket lands strictly after the new
    // cursor and within the next-finer window, so this terminates. Each
    // block goes back as soon as its keys are re-placed, so the finer cells
    // can reuse it.
    cur_b_ = (c.num << (kBucketBits * L)) - 1;
    while (chain != nullptr) {
      KeyBlock* b = chain;
      chain = b->next;
      for (std::uint32_t i = 0; i < b->n; ++i) place(b->keys[i]);
      b->next = free_blocks_;
      free_blocks_ = b;
    }
  }
}

// The canonical head across the sealed bucket and the incursion heap;
// advances the cursor as needed. Incursion entries sit in strictly earlier
// level-0 buckets than anything still on the wheel, so comparing the two
// heads is a complete merge. Returns null when no event remains. The
// pointer is valid until the next mutating call.
const EventQueue::Key* EventQueue::peek_head() {
  for (;;) {
    const Key* s = spos_ < sorted_.size() ? &sorted_[spos_] : nullptr;
    const Key* i = incur_.empty() ? nullptr : incur_.data();
    if (s != nullptr && i != nullptr) return key_less(*s, *i) ? s : i;
    if (s != nullptr) return s;
    if (i != nullptr) return i;
    if (!advance()) return nullptr;
  }
}

bool EventQueue::take_head(Key& out) {
  const Key* h = peek_head();
  if (h == nullptr) return false;
  out = *h;
  if (spos_ < sorted_.size() && h == &sorted_[spos_]) {
    ++spos_;
  } else {
    std::pop_heap(incur_.begin(), incur_.end(),
                  [](const Key& a, const Key& b) { return key_less(b, a); });
    incur_.pop_back();
  }
  return true;
}

// --- running ------------------------------------------------------------------

bool EventQueue::run_head() {
  Key k;
  if (!take_head(k)) return false;
  now_ = k.time;
  --pending_;
  // Reclaim before invoking, so the handler's own schedules can reuse the
  // slot.
  EventFn fn = std::move(slab(k.slot).fn);
  free_slot(k.slot);
  fn();
  return true;
}

std::uint64_t EventQueue::run(std::uint64_t limit) {
  std::uint64_t n = 0;
  while (n < limit && run_head()) ++n;
  return n;
}

SimTime EventQueue::next_event_time() {
  if (pending_ == 0) return kNever;  // skip the empty ring scan
  const Key* h = peek_head();
  return h != nullptr ? h->time : kNever;
}

std::uint64_t EventQueue::run_until(SimTime t) {
  std::uint64_t n = 0;
  // The peek may move the drain cursor past t; anything scheduled into the
  // gap afterwards routes through the incursion heap, preserving canonical
  // order.
  while (next_event_time() <= t) {
    run_head();
    ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

}  // namespace asp::net
