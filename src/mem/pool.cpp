#include "mem/pool.hpp"

#include <cstdlib>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"

namespace asp::mem {

// --- attribution --------------------------------------------------------------

namespace {
thread_local AllocTag g_alloc_tag = AllocTag::kOther;
}  // namespace

AllocTag current_alloc_tag() { return g_alloc_tag; }
void set_alloc_tag(AllocTag t) { g_alloc_tag = t; }

// --- poison -------------------------------------------------------------------

namespace {
bool poison_from_env() {
  const char* v = std::getenv("ASP_MEM_POISON");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}
// Atomic because shard threads read it on every recycle while a test on the
// main thread may flip it (always between runs, but TSAN can't know that).
std::atomic<bool> g_poison{poison_from_env()};
}  // namespace

bool poison_enabled() { return g_poison.load(std::memory_order_relaxed); }
void set_poison(bool on) { g_poison.store(on, std::memory_order_relaxed); }

// --- stats registry -----------------------------------------------------------

namespace {
struct StatsEntry {
  std::string name;
  const PoolStats* stats;
};
// Leaked: register_pool_stats can be called from leaked shard-pool
// constructors whose order relative to this file's statics is unspecified,
// and the list must outlive every pool.
std::vector<StatsEntry>& stats_list() {
  static auto* list = new std::vector<StatsEntry>;
  return *list;
}
std::mutex& stats_list_mu() {
  static auto* mu = new std::mutex;
  return *mu;
}

obs::RelaxedU64 g_heap_captures;
obs::RelaxedU64 g_heap_capture_bytes;
obs::RelaxedU64 g_event_slab_chunks;
obs::RelaxedU64 g_event_slab_bytes;
}  // namespace

void register_pool_stats(const std::string& name, const PoolStats* stats) {
  std::lock_guard<std::mutex> lock(stats_list_mu());
  stats_list().push_back({name, stats});
}

void publish_metrics() {
  auto& reg = obs::registry();
  std::lock_guard<std::mutex> lock(stats_list_mu());
  for (const auto& e : stats_list()) {
    reg.gauge(e.name + "/hits").set(static_cast<double>(e.stats->hits.load()));
    reg.gauge(e.name + "/misses").set(static_cast<double>(e.stats->misses.load()));
    reg.gauge(e.name + "/recycled").set(static_cast<double>(e.stats->recycled.load()));
    reg.gauge(e.name + "/recycled_bytes")
        .set(static_cast<double>(e.stats->recycled_bytes.load()));
    reg.gauge(e.name + "/live").set(static_cast<double>(e.stats->live.load()));
    reg.gauge(e.name + "/remote_freed")
        .set(static_cast<double>(e.stats->remote_freed.load()));
    reg.gauge(e.name + "/remote_drained")
        .set(static_cast<double>(e.stats->remote_drained.load()));
    reg.gauge(e.name + "/spills").set(static_cast<double>(e.stats->spills.load()));
  }
  reg.gauge("mem/event/heap_captures").set(static_cast<double>(g_heap_captures.load()));
  reg.gauge("mem/event/heap_capture_bytes")
      .set(static_cast<double>(g_heap_capture_bytes.load()));
  reg.gauge("mem/event/slab_chunks")
      .set(static_cast<double>(g_event_slab_chunks.load()));
  reg.gauge("mem/event/slab_bytes")
      .set(static_cast<double>(g_event_slab_bytes.load()));
}

PoolTotals total_pool_stats() {
  PoolTotals t;
  std::lock_guard<std::mutex> lock(stats_list_mu());
  for (const auto& e : stats_list()) {
    t.hits += e.stats->hits.load();
    t.misses += e.stats->misses.load();
    t.recycled += e.stats->recycled.load();
    t.live += e.stats->live.load();
    t.remote_freed += e.stats->remote_freed.load();
    t.remote_drained += e.stats->remote_drained.load();
    t.spills += e.stats->spills.load();
  }
  return t;
}

void note_heap_capture(std::size_t bytes) {
  ++g_heap_captures;
  g_heap_capture_bytes += bytes;
}

std::uint64_t heap_capture_count() { return g_heap_captures.load(); }

void note_event_slab_chunk(std::size_t bytes) {
  ++g_event_slab_chunks;
  g_event_slab_bytes += bytes;
}

std::uint64_t event_slab_chunk_count() { return g_event_slab_chunks.load(); }

// --- slab pool ----------------------------------------------------------------

SlabPool::SlabPool(const std::string& name, const void* owner_token, bool locked)
    : owner_token_(owner_token), locked_(locked) {
  register_pool_stats(name, &stats_);
}

SlabPool::~SlabPool() { purge_free(); }

void* SlabPool::allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxBlock) {
    // Oversized requests bypass the chunks entirely; freed by size check in
    // deallocate() before any chunk masking.
    ++stats_.misses;
    ++stats_.live;
    return ::operator new(bytes);
  }
  MaybeLock lk(lock_if());
  if (locked_) ++stats_.spills;
  const int c = class_of(bytes);
  ClassDir& d = dirs_[c];
  std::int32_t ci = d.avail.find_first();
  if (ci < 0) {
    // Local freelists dry: reclaim cross-shard frees before growing.
    drain_remote_unlocked();
    ci = d.avail.find_first();
    if (ci < 0) return refill(c);
  }
  Chunk* ch = d.chunks[static_cast<std::size_t>(ci)];
  const auto b = static_cast<unsigned>(std::countr_zero(ch->free_mask));
  ch->free_mask &= ch->free_mask - 1;  // clear lowest set bit
  if (ch->free_mask == 0) d.avail.clear(static_cast<std::uint32_t>(ci));
  ++stats_.hits;
  ++stats_.live;
  return ch->base() + b * block_size(c);
}

void* SlabPool::refill(int c) {
  const std::size_t bs = block_size(c);
  void* raw =
      ::operator new(kBlockOffset + kChunkBlocks * bs, std::align_val_t{kChunkAlign});
  auto* ch = new (raw) Chunk;
  ch->home = this;
  ch->cls = static_cast<std::uint32_t>(c);
  ch->dir_index = static_cast<std::uint32_t>(dirs_[c].chunks.size());
  ch->free_mask = ~std::uint64_t{1};  // block 0 is handed out right away
  dirs_[c].chunks.push_back(ch);
  dirs_[c].avail.set(ch->dir_index);
  ++stats_.misses;
  ++stats_.live;
  return ch->base();
}

void SlabPool::deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxBlock) {
    --stats_.live;
    ::operator delete(p);
    return;
  }
  // Route by the chunk's home pool — NOT by `this`: a handle's control block
  // is released wherever the last reference dies.
  Chunk* ch = chunk_of(p);
  SlabPool* home = ch->home;
  --home->stats_.live;
  if (home->owner_token_ != nullptr &&
      home->owner_token_ == current_owner_token()) {
    home->free_local(ch, p);
    return;
  }
  ++home->stats_.remote_freed;
  home->remote_.push(p);
}

void SlabPool::free_local(Chunk* ch, void* p) noexcept {
  const std::size_t bs = block_size(static_cast<int>(ch->cls));
  if (poison_enabled()) std::memset(p, kPoisonByte, bs);
  const auto b =
      static_cast<unsigned>((static_cast<std::uint8_t*>(p) - ch->base()) / bs);
  if (ch->free_mask == 0) dirs_[ch->cls].avail.set(ch->dir_index);
  ch->free_mask |= std::uint64_t{1} << b;
  ++stats_.recycled;
}

void SlabPool::drain_remote() {
  MaybeLock lk(lock_if());
  drain_remote_unlocked();
}

void SlabPool::drain_remote_unlocked() noexcept {
  void* p = remote_.take_all();
  while (p != nullptr) {
    void* next = *static_cast<void**>(p);  // read the link before poison scribbles it
    ++stats_.remote_drained;
    free_local(chunk_of(p), p);
    p = next;
  }
}

void SlabPool::purge_free() {
  MaybeLock lk(lock_if());
  drain_remote_unlocked();
  for (auto& d : dirs_) {
    std::vector<Chunk*> keep;
    keep.reserve(d.chunks.size());
    for (Chunk* ch : d.chunks) {
      if (ch->free_mask == ~std::uint64_t{0}) {
        ch->~Chunk();
        ::operator delete(ch, std::align_val_t{kChunkAlign});
      } else {
        keep.push_back(ch);  // has live blocks; must survive
      }
    }
    d.chunks = std::move(keep);
    d.avail = Binmap{};
    for (std::size_t i = 0; i < d.chunks.size(); ++i) {
      d.chunks[i]->dir_index = static_cast<std::uint32_t>(i);
      if (d.chunks[i]->free_mask != 0) d.avail.set(static_cast<std::uint32_t>(i));
    }
  }
}

// --- buffer pool --------------------------------------------------------------

BufferPool::BufferPool(const std::string& name, SlabPool& slab,
                       const void* owner_token, bool locked)
    : owner_token_(owner_token), locked_(locked), slab_(&slab) {
  register_pool_stats(name, &stats_);
}

BufferPool::~BufferPool() { purge_free(); }

int BufferPool::class_for_request(std::size_t n) {
  std::size_t cap = kBaseCapacity;
  for (int c = 0; c < kClasses; ++c, cap *= 2) {
    if (n <= cap) return c;
  }
  return kClasses;  // oversized: pooled node, unclassed capacity
}

int BufferPool::class_for_capacity(std::size_t n) {
  if (n < kBaseCapacity) return -1;  // too small to guarantee any class
  std::size_t cap = kBaseCapacity;
  int fit = 0;
  for (int c = 1; c < kClasses; ++c) {
    cap *= 2;
    if (cap > n) break;
    fit = c;
  }
  return fit;
}

BufferPool::Handle BufferPool::wrap(Node* n) {
  ++stats_.live;
  // Deleter + slab-backed control block: steady-state acquire/release does
  // not touch operator new.
  return Handle(&n->bytes, Recycler{}, SlabAllocator<Bytes>{*slab_});
}

BufferPool::Handle BufferPool::acquire(std::size_t capacity_hint) {
  MaybeLock lk(lock_if());
  if (locked_) ++stats_.spills;
  ScopedAllocTag tag(AllocTag::kBuffer);
  const int c = class_for_request(capacity_hint);
  if (c < kClasses) {
    if (free_[c].empty() && !remote_.empty()) drain_remote_unlocked();
    if (!free_[c].empty()) {
      Node* n = free_[c].back();
      free_[c].pop_back();
      ++stats_.hits;
      return wrap(n);
    }
  }
  ++stats_.misses;
  auto* n = new Node;
  n->home = this;
  std::size_t cap = kBaseCapacity;
  for (int i = 0; i < c && i < kClasses; ++i) cap *= 2;
  n->bytes.reserve(std::max(capacity_hint, cap));
  return wrap(n);
}

BufferPool::Handle BufferPool::adopt(Bytes&& bytes) {
  if (bytes.capacity() < kBaseCapacity) {
    // Too small to adopt: moving it over a recycled node would free that
    // node's pooled storage, and recycle_local would reserve it again. Copy
    // into a class-0 node instead.
    Handle h = acquire(bytes.size());
    h->assign(bytes.begin(), bytes.end());
    return h;
  }
  MaybeLock lk(lock_if());
  if (locked_) ++stats_.spills;
  ScopedAllocTag tag(AllocTag::kBuffer);
  // Reuse an idle freelist node header if any class has one; its old storage
  // is replaced by the adopted storage via move-assign.
  Node* n = nullptr;
  for (int pass = 0; pass < 2 && n == nullptr; ++pass) {
    for (int c = 0; c < kClasses && n == nullptr; ++c) {
      if (!free_[c].empty()) {
        n = free_[c].back();
        free_[c].pop_back();
      }
    }
    if (n == nullptr && (pass != 0 || remote_.empty())) break;
    if (n == nullptr) drain_remote_unlocked();
  }
  if (n != nullptr) {
    n->bytes = std::move(bytes);
    ++stats_.hits;
  } else {
    ++stats_.misses;
    n = new Node;
    n->home = this;
    n->bytes = std::move(bytes);
  }
  return wrap(n);
}

void BufferPool::route_free(Bytes* b) noexcept {
  // Node is standard-layout with bytes as its first member.
  Node* n = reinterpret_cast<Node*>(b);
  BufferPool* home = n->home;
  // Poison + clear on the FREEING thread: storage scrubbed while its refs
  // are provably dead, and remote-parked nodes hold no surprises.
  if (poison_enabled() && !b->empty()) {
    std::memset(b->data(), kPoisonByte, b->size());
  }
  b->clear();
  --home->stats_.live;
  if (home->owner_token_ != nullptr &&
      home->owner_token_ == current_owner_token()) {
    home->recycle_local(n);
    return;
  }
  ++home->stats_.remote_freed;
  home->remote_.push(n);
}

void BufferPool::recycle_local(Node* n) noexcept {
  ++stats_.recycled;
  stats_.recycled_bytes += n->bytes.capacity();
  int c = class_for_capacity(n->bytes.capacity());
  if (c < 0) {
    // Tiny capacity: keep the node, drop the guarantee by parking it in
    // class 0 after reserving the base capacity (still amortized: happens
    // once per node).
    ScopedAllocTag tag(AllocTag::kBuffer);
    n->bytes.reserve(kBaseCapacity);
    c = 0;
  }
  free_[c].push_back(n);
}

void BufferPool::drain_remote() {
  MaybeLock lk(lock_if());
  drain_remote_unlocked();
}

void BufferPool::drain_remote_unlocked() noexcept {
  Node* n = remote_.take_all();
  while (n != nullptr) {
    Node* next = n->remote_next;
    ++stats_.remote_drained;
    recycle_local(n);
    n = next;
  }
}

void BufferPool::purge_free() {
  MaybeLock lk(lock_if());
  drain_remote_unlocked();
  for (auto& cls : free_) {
    for (Node* n : cls) delete n;
    cls.clear();
  }
}

}  // namespace asp::mem
