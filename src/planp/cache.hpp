// CacheStore: the bounded LRU/TTL object cache behind the PLAN-P cache*
// primitives (DESIGN.md §6i).
//
// The paper's ASPs keep per-router state in PLAN-P hash tables; an HTTP edge
// cache needs a harder primitive — bounded residency, recency eviction and
// freshness — so the store lives in C++ behind EnvApi and PLAN-P sees only
// integer keys and blob bodies. One store per runtime (per node), so state is
// shard-confined like the node itself and sharded runs stay deterministic.
//
// Memory discipline: configure() only records the capacity. The slot array
// and the probe index grow by doubling with the number of entries held, up
// to that capacity, so a router that holds 50 objects of a 4,096-entry cache
// pays for about 64. The allocator is called only when a table grows; once
// a table stops growing, hits, fills, refills and evictions allocate
// nothing. Bodies are pooled net::Buffer references, so a fill retains the
// packet's payload buffer and an eviction returns it to the shard-local
// buffer pool (src/mem), preserving the 0-alloc/packet budget and
// `spills==0`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hpp"

namespace asp::planp {

class CacheStore {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;  // capacity (LRU) evictions
    std::uint64_t expired = 0;    // TTL lapses observed by lookup/store
  };

  // A new store is configured for kDefaultEntries entries that never expire;
  // no table is built yet. stats() is the one count of its hits, misses,
  // fills, evictions and expiries.

  /// Sets the store's limits: at most `max_entries` resident objects, each
  /// fresh for `ttl_ms` after its fill (ttl_ms <= 0: never expires).
  /// Reconfiguring clears residency and releases the tables but keeps
  /// counters. Entry count is clamped to [1, kMaxEntries] — the verifier's
  /// cost bound assumes O(1) operations, so the probe table must stay small.
  void configure(std::size_t max_entries, std::int64_t ttl_ms);

  /// The body filled under `key` if present and fresh at `now_ms`, else
  /// nullptr. A hit promotes the entry to most-recently-used; a stale entry
  /// counts as `expired` (and is dropped), not as a plain miss. The pointer
  /// stays valid until the next store() or configure() (a fill may grow, and
  /// so move, the slot array).
  const net::Buffer* lookup(std::uint64_t key, std::int64_t now_ms);

  /// Fills `key` with `body` (refcounted alias, no copy). A new key takes a
  /// slot freed earlier (by an entry lookup() found expired) if there is one,
  /// else a new slot while fewer than capacity() exist; only a store at
  /// capacity evicts, taking the least-recently-used entry. Refilling an
  /// existing key replaces the body and refreshes its TTL.
  void store(std::uint64_t key, net::Buffer body, std::int64_t now_ms);

  /// Freshness probe without LRU promotion or hit/miss accounting.
  bool contains(std::uint64_t key, std::int64_t now_ms) const;

  std::size_t size() const { return live_; }
  /// The configured entry limit, whether or not the tables have grown to it.
  std::size_t capacity() const { return capacity_; }
  /// Slots built so far: at least size(), at most capacity().
  std::size_t slots() const { return slots_.size(); }
  const Stats& stats() const { return stats_; }
  void clear();

  /// Entry limit of a store no ASP has configured (cacheConfigure).
  static constexpr std::size_t kDefaultEntries = 64;
  /// Hard ceiling on configure()'s entry count (keeps the per-op cost the
  /// verifier assumes honest).
  static constexpr std::size_t kMaxEntries = 1 << 20;

  // --- cache-key hashing ------------------------------------------------------
  /// FNV-1a 64 offset basis: the hash of no bytes.
  static constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
  /// FNV-1a 64 of `len` bytes, continuing from `seed`. The project's one
  /// copy: the DEPLOY/1 checksum and the topology digest use it too.
  static std::uint64_t fnv1a(const void* bytes, std::size_t len,
                             std::uint64_t seed = kFnvBasis);
  /// Key for a textual HTTP request line: method + host + path.
  static std::uint64_t key_of(const std::string& method, std::uint32_t host_bits,
                              const std::string& path);
  /// Key for a binary object id served by `host_bits` (scenario wire format).
  static std::uint64_t key_of(std::uint64_t object_id, std::uint32_t host_bits);

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Entry {
    std::uint64_t key = 0;
    std::int64_t expire_ms = 0;  // absolute deadline; <0 = never
    net::Buffer body;
    std::uint32_t prev = kNil;  // toward MRU
    std::uint32_t next = kNil;  // toward LRU
  };

  std::uint32_t find_slot(std::uint64_t key) const;  // kNil if absent
  std::uint32_t new_slot();  // appends a slot, growing the tables as needed
  void index_insert(std::uint64_t key, std::uint32_t slot);
  void index_erase(std::uint64_t key);  // backward-shift deletion
  void lru_unlink(std::uint32_t slot);
  void lru_push_front(std::uint32_t slot);
  void evict_slot(std::uint32_t slot);  // unlink + release body + free
  bool fresh(const Entry& e, std::int64_t now_ms) const {
    return e.expire_ms < 0 || now_ms <= e.expire_ms;
  }

  std::vector<Entry> slots_;           // grows by doubling up to capacity_
  std::vector<std::uint32_t> free_;    // recycled slot ids
  std::vector<std::uint32_t> index_;   // open-addressed key -> slot (kNil
                                       // empty); at most half full, or empty
  std::uint64_t index_mask_ = 0;
  std::size_t capacity_ = kDefaultEntries;
  std::uint32_t lru_head_ = kNil;  // most recently used
  std::uint32_t lru_tail_ = kNil;  // least recently used
  std::size_t live_ = 0;
  std::int64_t ttl_ms_ = 0;  // <=0: never expires

  Stats stats_;
};

}  // namespace asp::planp
