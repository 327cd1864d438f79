#include "planp/cache.hpp"

#include <algorithm>
#include <cstring>

#include "planp/primitives.hpp"

namespace asp::planp {

void CacheStore::configure(std::size_t max_entries, std::int64_t ttl_ms) {
  capacity_ = std::clamp<std::size_t>(max_entries, 1, kMaxEntries);
  ttl_ms_ = ttl_ms;
  // Release the tables (and every body they hold); new_slot rebuilds them as
  // entries arrive.
  std::vector<Entry>().swap(slots_);
  std::vector<std::uint32_t>().swap(free_);
  std::vector<std::uint32_t>().swap(index_);
  index_mask_ = 0;
  lru_head_ = lru_tail_ = kNil;
  live_ = 0;
}

void CacheStore::clear() { configure(capacity_, ttl_ms_); }

std::uint64_t CacheStore::fnv1a(const void* bytes, std::size_t len,
                                std::uint64_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(bytes);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t CacheStore::key_of(const std::string& method,
                                 std::uint32_t host_bits,
                                 const std::string& path) {
  // '\n' separators keep ("GET", "a/b") distinct from ("GETa", "/b").
  std::uint64_t h = fnv1a(method.data(), method.size());
  h = fnv1a("\n", 1, h);
  std::uint8_t hb[4] = {static_cast<std::uint8_t>(host_bits >> 24),
                        static_cast<std::uint8_t>(host_bits >> 16),
                        static_cast<std::uint8_t>(host_bits >> 8),
                        static_cast<std::uint8_t>(host_bits)};
  h = fnv1a(hb, sizeof hb, h);
  h = fnv1a("\n", 1, h);
  return fnv1a(path.data(), path.size(), h);
}

std::uint64_t CacheStore::key_of(std::uint64_t object_id,
                                 std::uint32_t host_bits) {
  std::uint8_t buf[12];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::uint8_t>(object_id >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    buf[8 + i] = static_cast<std::uint8_t>(host_bits >> (8 * i));
  }
  return fnv1a(buf, sizeof buf);
}

std::uint32_t CacheStore::find_slot(std::uint64_t key) const {
  if (index_.empty()) return kNil;  // nothing filled since configure
  std::size_t i = key & index_mask_;
  while (index_[i] != kNil) {
    if (slots_[index_[i]].key == key) return index_[i];
    i = (i + 1) & index_mask_;
  }
  return kNil;
}

std::uint32_t CacheStore::new_slot() {
  // The slot array doubles (from 16), never past capacity_; free_ is sized
  // with it so that evictions never allocate.
  if (slots_.size() == slots_.capacity()) {
    const std::size_t n =
        std::min(capacity_, std::max<std::size_t>(16, 2 * slots_.size()));
    slots_.reserve(n);
    free_.reserve(n);
  }
  slots_.emplace_back();
  // Keep the probe index at most half full: double it and reinsert every
  // resident entry (free slots are not indexed).
  if (index_.size() < 2 * slots_.size()) {
    std::vector<std::uint32_t> old(std::max<std::size_t>(32, 2 * index_.size()), kNil);
    old.swap(index_);
    index_mask_ = index_.size() - 1;
    for (std::uint32_t slot : old) {
      if (slot != kNil) index_insert(slots_[slot].key, slot);
    }
  }
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void CacheStore::index_insert(std::uint64_t key, std::uint32_t slot) {
  std::size_t i = key & index_mask_;
  while (index_[i] != kNil) i = (i + 1) & index_mask_;
  index_[i] = slot;
}

void CacheStore::index_erase(std::uint64_t key) {
  std::size_t i = key & index_mask_;
  while (index_[i] != kNil && slots_[index_[i]].key != key) {
    i = (i + 1) & index_mask_;
  }
  if (index_[i] == kNil) return;
  // Backward-shift deletion: close the probe run so later lookups never see
  // a tombstone (keeps probes short at any churn level).
  std::size_t hole = i;
  std::size_t j = (i + 1) & index_mask_;
  while (index_[j] != kNil) {
    std::size_t home = slots_[index_[j]].key & index_mask_;
    // Move j into the hole if its home position does not lie strictly after
    // the hole on the cyclic probe path home..j.
    bool movable = ((j - home) & index_mask_) >= ((j - hole) & index_mask_);
    if (movable) {
      index_[hole] = index_[j];
      hole = j;
    }
    j = (j + 1) & index_mask_;
  }
  index_[hole] = kNil;
}

void CacheStore::lru_unlink(std::uint32_t slot) {
  Entry& e = slots_[slot];
  if (e.prev != kNil) {
    slots_[e.prev].next = e.next;
  } else {
    lru_head_ = e.next;
  }
  if (e.next != kNil) {
    slots_[e.next].prev = e.prev;
  } else {
    lru_tail_ = e.prev;
  }
  e.prev = e.next = kNil;
}

void CacheStore::lru_push_front(std::uint32_t slot) {
  Entry& e = slots_[slot];
  e.prev = kNil;
  e.next = lru_head_;
  if (lru_head_ != kNil) slots_[lru_head_].prev = slot;
  lru_head_ = slot;
  if (lru_tail_ == kNil) lru_tail_ = slot;
}

void CacheStore::evict_slot(std::uint32_t slot) {
  index_erase(slots_[slot].key);
  lru_unlink(slot);
  slots_[slot].body.reset();  // last reference returns storage to the pool
  free_.push_back(slot);
  --live_;
}

const net::Buffer* CacheStore::lookup(std::uint64_t key, std::int64_t now_ms) {
  std::uint32_t slot = find_slot(key);
  if (slot == kNil) {
    ++stats_.misses;
    return nullptr;
  }
  if (!fresh(slots_[slot], now_ms)) {
    evict_slot(slot);
    ++stats_.expired;
    return nullptr;
  }
  lru_unlink(slot);
  lru_push_front(slot);
  ++stats_.hits;
  return &slots_[slot].body;
}

void CacheStore::store(std::uint64_t key, net::Buffer body, std::int64_t now_ms) {
  std::int64_t expire = ttl_ms_ <= 0 ? -1 : now_ms + ttl_ms_;
  std::uint32_t slot = find_slot(key);
  if (slot != kNil) {  // refill: replace body, refresh TTL, promote
    slots_[slot].body = std::move(body);
    slots_[slot].expire_ms = expire;
    lru_unlink(slot);
    lru_push_front(slot);
  } else {
    if (free_.empty() && slots_.size() == capacity_) {
      // Full: reclaim the LRU tail. A stale tail is an expiry, not a
      // capacity eviction — don't charge the working set for dead entries.
      bool stale = !fresh(slots_[lru_tail_], now_ms);
      evict_slot(lru_tail_);
      if (stale) {
        ++stats_.expired;
      } else {
        ++stats_.evictions;
      }
    }
    if (free_.empty()) {
      slot = new_slot();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    slots_[slot] = Entry{key, expire, std::move(body), kNil, kNil};
    index_insert(key, slot);
    lru_push_front(slot);
    ++live_;
  }
  ++stats_.fills;
}

bool CacheStore::contains(std::uint64_t key, std::int64_t now_ms) const {
  std::uint32_t slot = find_slot(key);
  return slot != kNil && fresh(slots_[slot], now_ms);
}

// EnvApi's store, created on first cache-primitive use. Defined here (with
// the destructor) so primitives.hpp only needs the forward declaration.
EnvApi::EnvApi() = default;
EnvApi::~EnvApi() = default;

CacheStore& EnvApi::cache() {
  if (cache_ == nullptr) cache_ = std::make_unique<CacheStore>();
  return *cache_;
}

}  // namespace asp::planp
