// Shard-local pooled memory: the per-packet fast path must not touch the
// general-purpose allocator OR any shared mutable cache line.
//
// Line-rate packet processors (P4 targets, kernel ASPs like the paper's
// Solaris module) reach "as fast as the hardware allows" by recycling every
// per-packet object through freelists sized at install time. PR 4 built the
// pools; this layer makes them scale: every pool instance is owned by exactly
// ONE shard (mem/shard.hpp binds a shard to a thread), so the steady-state
// alloc/free path is plain single-threaded code — no locks, no atomics except
// relaxed stat counters — and cross-shard frees ride a lock-free MPSC
// remote-free channel drained by the owner at window barriers, exactly how
// cross-shard frames already flow through net/mailbox.hpp.
//
//   SlabPool          size-classed raw blocks carved from 64 KiB-aligned
//                     chunks; a hierarchical binmap (mem/binmap.hpp) per class
//                     answers "which chunk has a free block" in three
//                     find-first-set steps. Backs shared_ptr control blocks.
//   BufferPool        recycles the byte vectors behind net::Buffer with their
//                     capacity, classed by power-of-two capacity.
//   VecPool<T>        same discipline for std::vector<T> (PLAN-P tuples).
//   BoxPool<T>        single-object boxes (in-flight Packets) so event
//                     callbacks capture one pointer instead of ~150 bytes.
//   FrameArena<T>     per-engine, depth-indexed execution frames — engine-
//                     confined, unchanged by the sharding.
//
// Ownership & the remote-free protocol (DESIGN.md §6e):
//   * Every pooled object records its HOME pool: slab blocks resolve their
//     chunk header by address mask (chunks are kChunkAlign-aligned and carry
//     `home`), node pools (Buffer/Vec/Box) keep a `home` field in the node —
//     the per-block ownership header.
//   * Allocation only ever touches the calling shard's own instance.
//   * A free executed on the owning shard goes straight back on the freelist.
//   * A free executed anywhere else (a packet's buffer crossing a shard
//     boundary, a release after the owning thread exited, static
//     destruction) pushes the object onto the home pool's remote-free
//     channel: a Treiber-stack CAS, never a lock, never a touch of the
//     owner's freelists.
//   * The owner drains its channels at window barriers (net/exec.cpp), when
//     a local freelist runs empty, and at thread exit — so remote frees are
//     reclaimed without ever synchronizing the hot path.
//
// The only locked operations left are the cold registry paths (stats
// registration, shard binding) and the ORPHAN pools that serve allocations on
// threads whose shard binding was already torn down (static destruction);
// every orphan acquisition is counted in `spills`, and benches assert the
// counter stays 0 in steady state.
//
// Pool statistics are relaxed atomics (obs::RelaxedU64): exact totals at
// barriers, no synchronization on the hot path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include "mem/binmap.hpp"
#include "obs/relaxed.hpp"

namespace asp::mem {

// --- allocation attribution ---------------------------------------------------

/// Which subsystem the current heap allocation (if any) belongs to. The
/// pools set this around their refill paths; bench_fastpath's replaced
/// operator new reads it to attribute every allocation.
enum class AllocTag : std::uint8_t {
  kOther = 0,
  kBuffer,  // payload / blob byte storage
  kTuple,   // PLAN-P tuple storage
  kFrame,   // interpreter / JIT execution frames
  kEvent,   // event-queue callbacks (oversized captures)
  kCount,
};

AllocTag current_alloc_tag();
void set_alloc_tag(AllocTag t);

/// RAII attribution scope. Nested scopes override (innermost wins), so a
/// tuple-pool refill inside a channel body still counts as kTuple.
class ScopedAllocTag {
 public:
  explicit ScopedAllocTag(AllocTag t) : prev_(current_alloc_tag()) { set_alloc_tag(t); }
  ~ScopedAllocTag() { set_alloc_tag(prev_); }
  ScopedAllocTag(const ScopedAllocTag&) = delete;
  ScopedAllocTag& operator=(const ScopedAllocTag&) = delete;

 private:
  AllocTag prev_;
};

// --- poison-on-free -----------------------------------------------------------

/// When enabled, recycled byte storage is filled with kPoisonByte and
/// recycled Value slots with kPoisonInt before going back on a freelist, so
/// any still-live reference into recycled memory reads a loud sentinel.
/// Initialized from the ASP_MEM_POISON environment variable.
bool poison_enabled();
void set_poison(bool on);

inline constexpr std::uint8_t kPoisonByte = 0xA5;
inline constexpr std::int64_t kPoisonInt = 0x504F4953;  // "POIS"

// --- shard binding hooks (implemented in shard.cpp) ---------------------------

/// Opaque identity of the shard bound to the calling thread, or nullptr when
/// the thread is unbound (shard binding torn down during static destruction,
/// or never established). The free path compares a pool's owner token against
/// this to decide local-freelist vs remote-channel — a single TLS read.
const void* current_owner_token() noexcept;

class SlabPool;
/// The calling shard's slab (lazily binding the thread); used by the
/// default-constructed SlabAllocator.
SlabPool& current_slab();

// --- pool statistics ----------------------------------------------------------

/// Counters every pool keeps internally (own cells, not obs instruments:
/// recycling deleters may run during static destruction, after the metrics
/// registry is gone). publish_metrics() snapshots them into obs::registry().
/// The cells are relaxed atomics — remote frees bump the HOME pool's stats
/// from foreign threads; every update is a commutative add, so totals are
/// exact at window barriers.
struct PoolStats {
  obs::RelaxedU64 hits;            // acquisitions served from a freelist
  obs::RelaxedU64 misses;          // acquisitions that hit operator new
  obs::RelaxedU64 recycled;        // objects returned to a freelist
  obs::RelaxedU64 recycled_bytes;  // capacity of recycled byte storage
  obs::RelaxedU64 live;            // currently checked-out objects
  obs::RelaxedU64 remote_freed;    // frees pushed onto the remote channel
  obs::RelaxedU64 remote_drained;  // remote frees reclaimed by the owner
  obs::RelaxedU64 spills;          // locked orphan-path operations (0 steady)

  /// Test hook: zeroes every counter except `live` (which tracks real
  /// checked-out objects and must stay truthful across resets).
  void reset_counters() {
    hits = 0;
    misses = 0;
    recycled = 0;
    recycled_bytes = 0;
    remote_freed = 0;
    remote_drained = 0;
    spills = 0;
  }
};

/// Registers a pool's stats under `name` (e.g. "mem/shard0/slab") for
/// publish_metrics(). The pointer must stay valid for the process lifetime
/// (shard pool instances are leaked, so it does).
void register_pool_stats(const std::string& name, const PoolStats* stats);

/// Copies every registered pool's counters into obs::registry() as gauges
/// (mem/shard<K>/<pool>/{hits,misses,recycled,recycled_bytes,live,
/// remote_freed,remote_drained,spills}), plus mem/event/heap_captures.
/// Benches call this right before exporting JSON.
void publish_metrics();

/// Plain-value totals across every registered pool (all shards + orphan).
/// Benches difference these around a steady-state loop: `spills` is the
/// "did anything take a mutex on the pool path" probe CI gates on, and
/// `remote_freed == remote_drained` after final drains proves no block is
/// stranded on a channel.
struct PoolTotals {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t recycled = 0;
  std::uint64_t live = 0;
  std::uint64_t remote_freed = 0;
  std::uint64_t remote_drained = 0;
  std::uint64_t spills = 0;
};
PoolTotals total_pool_stats();

/// Oversized event-callback captures that fell back to the heap (see
/// SmallFn in smallfn.hpp). Kept here so pool.cpp owns all counters.
void note_heap_capture(std::size_t bytes);
std::uint64_t heap_capture_count();

/// Event-queue slab growth: one chunk of pooled calendar-queue entries
/// (net/event.cpp). Process-wide (queues are shard-confined but short-lived
/// in tests, so per-queue PoolStats registration would dangle); published as
/// mem/event/slab_chunks / slab_bytes.
void note_event_slab_chunk(std::size_t bytes);
std::uint64_t event_slab_chunk_count();

// --- remote-free channels -----------------------------------------------------

/// Lock-free MPSC stack of raw blocks: any thread pushes (Treiber CAS, the
/// block's first word is the link), only the owning shard drains. The same
/// design as net::Mailbox — remote frees are to pools what cross-shard
/// frames are to event queues, and they synchronize the same way (release
/// push / acquire drain).
class RemoteFreeChannel {
 public:
  void push(void* p) noexcept {
    void* h = head_.load(std::memory_order_relaxed);
    do {
      *static_cast<void**>(p) = h;
    } while (!head_.compare_exchange_weak(h, p, std::memory_order_release,
                                          std::memory_order_relaxed));
  }

  /// Owner only. Returns the whole chain (first-word links), or nullptr.
  void* take_all() noexcept { return head_.exchange(nullptr, std::memory_order_acquire); }

  bool empty() const noexcept {
    return head_.load(std::memory_order_acquire) == nullptr;
  }

 private:
  std::atomic<void*> head_{nullptr};
};

/// RemoteFreeChannel for node-based pools whose nodes hold live C++ objects:
/// the link is an explicit `remote_next` member, so pushing never clobbers
/// the node's contents.
template <typename Node>
class RemoteFreeList {
 public:
  void push(Node* n) noexcept {
    Node* h = head_.load(std::memory_order_relaxed);
    do {
      n->remote_next = h;
    } while (!head_.compare_exchange_weak(h, n, std::memory_order_release,
                                          std::memory_order_relaxed));
  }

  Node* take_all() noexcept { return head_.exchange(nullptr, std::memory_order_acquire); }

  bool empty() const noexcept {
    return head_.load(std::memory_order_acquire) == nullptr;
  }

 private:
  std::atomic<Node*> head_{nullptr};
};

// --- pool base ----------------------------------------------------------------

/// Common surface the shard registry (mem/shard.hpp) drives: barrier drains,
/// test purges/resets. Virtual dispatch only on these cold paths — the
/// alloc/free fast paths are direct calls on the concrete types.
class PoolBase {
 public:
  virtual ~PoolBase() = default;
  /// Owner thread (or locked orphan): reclaim everything queued on the
  /// remote-free channel into the local freelists.
  virtual void drain_remote() = 0;
  /// Test hook: release every free object back to the system so the next
  /// acquisition deterministically misses. Live objects are untouched.
  virtual void purge_free() = 0;

  const PoolStats& stats() const { return stats_; }
  void reset_stats_for_test() { stats_.reset_counters(); }

 protected:
  PoolStats stats_;
};

/// Engages a pool's mutex only in locked (orphan) mode; shard-owned pools
/// construct this with nullptr and never touch a lock.
class MaybeLock {
 public:
  explicit MaybeLock(std::mutex* m) : m_(m) {
    if (m_ != nullptr) m_->lock();
  }
  ~MaybeLock() {
    if (m_ != nullptr) m_->unlock();
  }
  MaybeLock(const MaybeLock&) = delete;
  MaybeLock& operator=(const MaybeLock&) = delete;

 private:
  std::mutex* m_;
};

// --- slab pool ----------------------------------------------------------------

/// Size-classed allocator for small raw blocks (shared_ptr control blocks of
/// pooled handles). Blocks are carved from kChunkAlign-aligned chunks of 64
/// blocks; each chunk keeps a one-word free mask and each class a
/// hierarchical Binmap over its chunks, so allocation is find-first-set all
/// the way down — no freelist walk, no lock. The chunk header doubles as the
/// ownership header: any pointer masks back to its chunk, which names the
/// home pool. Requests above kMaxBlock fall through to operator new.
///
/// Single-owner: allocate()/drain_remote() run only on the owning shard's
/// thread (the orphan instance locks instead and counts spills). deallocate()
/// runs anywhere — it routes by the chunk's home pool, pushing onto the
/// remote-free channel when the caller is not the owner.
class SlabPool : public PoolBase {
 public:
  static constexpr std::size_t kAlign = alignof(std::max_align_t);
  static constexpr std::size_t kMaxBlock = 512;
  static constexpr int kChunkBlocks = 64;
  static constexpr std::size_t kChunkAlign = 64 * 1024;

  /// `owner_token` identifies the owning shard for free-path routing
  /// (nullptr = orphan, always routed remotely); `locked` guards every
  /// owner-side operation with a mutex (orphan only).
  SlabPool(const std::string& name, const void* owner_token, bool locked);
  ~SlabPool() override;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  void* allocate(std::size_t bytes);
  /// Any thread. Routes to the block's home pool regardless of which
  /// instance it is invoked on.
  void deallocate(void* p, std::size_t bytes) noexcept;

  void drain_remote() override;
  void purge_free() override;

 private:
  struct Chunk {
    std::uint64_t free_mask = 0;  // bit b set = block b free
    SlabPool* home = nullptr;
    std::uint32_t cls = 0;
    std::uint32_t dir_index = 0;  // position in the class directory

    std::uint8_t* base() {
      return reinterpret_cast<std::uint8_t*>(this) + kBlockOffset;
    }
  };
  // First block offset inside a chunk: past the header, cache-line aligned.
  static constexpr std::size_t kBlockOffset = 128;
  static_assert(sizeof(Chunk) <= kBlockOffset);
  static_assert(kBlockOffset + kChunkBlocks * kMaxBlock <= kChunkAlign);

  struct ClassDir {
    Binmap avail;                // chunks with at least one free block
    std::vector<Chunk*> chunks;  // every chunk of the class, dir_index-stable
  };

  static constexpr int kClasses = static_cast<int>(kMaxBlock / kAlign);
  static int class_of(std::size_t bytes) {
    return static_cast<int>((bytes + kAlign - 1) / kAlign) - 1;
  }
  static std::size_t block_size(int c) {
    return static_cast<std::size_t>(c + 1) * kAlign;
  }
  static Chunk* chunk_of(void* p) {
    return reinterpret_cast<Chunk*>(reinterpret_cast<std::uintptr_t>(p) &
                                    ~(kChunkAlign - 1));
  }

  std::mutex* lock_if() { return locked_ ? &mu_ : nullptr; }
  void* refill(int c);
  void free_local(Chunk* ch, void* p) noexcept;
  void drain_remote_unlocked() noexcept;

  const void* owner_token_;
  const bool locked_;
  std::mutex mu_;  // engaged only when locked_ (orphan)
  ClassDir dirs_[kClasses];
  RemoteFreeChannel remote_;
};

/// std::allocator-shaped adaptor over a shard's SlabPool, used to put
/// shared_ptr control blocks of pooled handles on freelists. Stateful (which
/// slab serves *allocations*), but deallocation routes by the block's home,
/// so all instances compare equal.
template <typename T>
struct SlabAllocator {
  using value_type = T;
  SlabPool* slab;

  SlabAllocator() noexcept : slab(&current_slab()) {}
  explicit SlabAllocator(SlabPool& s) noexcept : slab(&s) {}
  template <typename U>
  SlabAllocator(const SlabAllocator<U>& o) noexcept : slab(o.slab) {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(slab->allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    slab->deallocate(p, n * sizeof(T));
  }
  friend bool operator==(SlabAllocator, SlabAllocator) { return true; }
  friend bool operator!=(SlabAllocator, SlabAllocator) { return false; }
};

// --- buffer pool --------------------------------------------------------------

/// Recycles the `std::vector<std::uint8_t>` storage behind net::Buffer.
/// acquire() hands out a shared vector whose deleter returns the node (with
/// its capacity intact) to a capacity-classed freelist once the last
/// reference — Payload, blob Value, or aliased packet — drops. The returned
/// shared_ptr's control block comes from the owning shard's slab pool, so a
/// steady-state acquire/release cycle performs zero heap allocations.
///
/// Single-owner with remote-free routing: the deleter may run on any shard
/// (a packet's payload crosses shard boundaries); it pushes the node onto
/// the home pool's remote channel unless the caller IS the owner.
class BufferPool : public PoolBase {
 public:
  using Bytes = std::vector<std::uint8_t>;
  using Handle = std::shared_ptr<Bytes>;

  BufferPool(const std::string& name, SlabPool& slab, const void* owner_token,
             bool locked);
  ~BufferPool() override;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Empty vector with capacity >= `capacity_hint` (rounded to a class).
  Handle acquire(std::size_t capacity_hint);

  /// Wraps caller-built storage in a pooled handle: the vector's storage is
  /// adopted as-is (no copy); on release the node joins the freelist and the
  /// adopted capacity is recycled for future acquires. A vector with less
  /// than kBaseCapacity is copied into a class-0 node instead, so adopting
  /// it costs no allocation in steady state.
  Handle adopt(Bytes&& bytes);

  void drain_remote() override;
  void purge_free() override;

 private:
  static constexpr std::size_t kBaseCapacity = 64;
  static constexpr int kClasses = 16;  // 64 B ... 2 MiB

  struct Node {
    Bytes bytes;  // must stay first: handles point at it, recycle casts back
    Node* remote_next = nullptr;
    BufferPool* home = nullptr;
  };
  struct Recycler {
    void operator()(Bytes* b) const noexcept { BufferPool::route_free(b); }
  };

  // Smallest class whose guaranteed capacity covers `n` (for acquire).
  static int class_for_request(std::size_t n);
  // Largest class whose guaranteed capacity is <= `n` (for recycling).
  static int class_for_capacity(std::size_t n);

  /// Free-path entry, any thread: poisons/clears on the freeing thread so
  /// aliased references are released promptly, then routes by `home`.
  static void route_free(Bytes* b) noexcept;

  std::mutex* lock_if() { return locked_ ? &mu_ : nullptr; }
  Handle wrap(Node* n);
  void recycle_local(Node* n) noexcept;
  void drain_remote_unlocked() noexcept;

  const void* owner_token_;
  const bool locked_;
  std::mutex mu_;  // engaged only when locked_ (orphan)
  SlabPool* slab_;
  std::vector<Node*> free_[kClasses];
  RemoteFreeList<Node> remote_;
};

// --- generic vector pool ------------------------------------------------------

/// BufferPool's discipline for std::vector<T>: pooled shared vectors whose
/// element capacity survives recycling. Used for PLAN-P tuple storage
/// (VecPool<Value>), where the per-packet decode tuples dominate.
///
/// PoisonFill is a customization point invoked on recycle when poison mode
/// is on (before the vector is cleared), so stale references into recycled
/// tuple storage read sentinels. The default does nothing.
template <typename T>
struct NoPoison {
  void operator()(std::vector<T>&) const {}
};

template <typename T, typename PoisonFill = NoPoison<T>>
class VecPool : public PoolBase {
 public:
  using Vec = std::vector<T>;
  using Handle = std::shared_ptr<Vec>;

  VecPool(const std::string& name, AllocTag tag, SlabPool& slab,
          const void* owner_token, bool locked)
      : tag_(tag), owner_token_(owner_token), locked_(locked), slab_(&slab) {
    register_pool_stats(name, &stats_);
  }
  ~VecPool() override { purge_free(); }
  VecPool(const VecPool&) = delete;
  VecPool& operator=(const VecPool&) = delete;

  /// Owner thread only (callers reach their own shard's instance through
  /// mem/shard.hpp). Empty vector, capacity from its previous life;
  /// `reserve_hint` is honored on the (counted) miss path so steady-state
  /// pushes never grow.
  Handle acquire(std::size_t reserve_hint) {
    MaybeLock lk(lock_if());
    if (locked_) ++stats_.spills;
    if (free_.empty() && !remote_.empty()) drain_remote_unlocked();
    Node* n = nullptr;
    if (!free_.empty()) {
      n = free_.back();
      free_.pop_back();
      ++stats_.hits;
      if (n->vec.capacity() < reserve_hint) {
        ScopedAllocTag tag(tag_);
        n->vec.reserve(reserve_hint);
      }
    } else {
      ScopedAllocTag tag(tag_);
      ++stats_.misses;
      n = new Node;
      n->home = this;
      n->vec.reserve(reserve_hint);
    }
    ++stats_.live;
    return Handle(&n->vec, Recycler{}, SlabAllocator<Vec>{*slab_});
  }

  void drain_remote() override {
    MaybeLock lk(lock_if());
    drain_remote_unlocked();
  }

  void purge_free() override {
    MaybeLock lk(lock_if());
    drain_remote_unlocked();
    for (Node* n : free_) delete n;
    free_.clear();
  }

 private:
  struct Node {
    Vec vec;  // must stay first: handles point at it, recycle casts back
    Node* remote_next = nullptr;
    VecPool* home = nullptr;
  };
  struct Recycler {
    void operator()(Vec* v) const noexcept { VecPool::route_free(v); }
  };

  /// Free-path entry, any thread. Clears on the freeing thread (element
  /// references — blobs pinning buffers — must release promptly), then
  /// routes by home: owner -> freelist, anyone else -> remote channel.
  static void route_free(Vec* v) noexcept {
    Node* n = reinterpret_cast<Node*>(v);
    VecPool* home = n->home;
    if (poison_enabled()) PoisonFill{}(*v);
    v->clear();  // destroys elements (releases their refs), keeps capacity
    --home->stats_.live;
    if (home->owner_token_ != nullptr &&
        home->owner_token_ == current_owner_token()) {
      ++home->stats_.recycled;
      home->free_.push_back(n);
      return;
    }
    ++home->stats_.remote_freed;
    home->remote_.push(n);
  }

  void drain_remote_unlocked() noexcept {
    Node* n = remote_.take_all();
    while (n != nullptr) {
      Node* next = n->remote_next;
      ++stats_.remote_drained;
      ++stats_.recycled;
      free_.push_back(n);
      n = next;
    }
  }

  std::mutex* lock_if() { return locked_ ? &mu_ : nullptr; }

  AllocTag tag_;
  const void* owner_token_;
  const bool locked_;
  std::mutex mu_;  // engaged only when locked_ (orphan)
  SlabPool* slab_;
  std::vector<Node*> free_;
  RemoteFreeList<Node> remote_;
};

// --- box pool -----------------------------------------------------------------

/// Pools single objects of T behind a unique-owner handle whose deleter
/// recycles the node. The point: an event callback capturing a Handle is
/// pointer-sized, so moving a Packet into a box keeps the whole capture
/// inside SmallFn's inline buffer. Recycling resets the object to T{} on the
/// freeing thread (held references — payload buffers — release promptly),
/// then routes the node home like every other pool.
template <typename T>
class BoxPool : public PoolBase {
 public:
  struct Recycler {
    void operator()(T* t) const noexcept { BoxPool::route_free(t); }
  };
  using Handle = std::unique_ptr<T, Recycler>;

  BoxPool(const std::string& name, AllocTag tag, const void* owner_token,
          bool locked)
      : tag_(tag), owner_token_(owner_token), locked_(locked) {
    register_pool_stats(name, &stats_);
  }
  ~BoxPool() override { purge_free(); }
  BoxPool(const BoxPool&) = delete;
  BoxPool& operator=(const BoxPool&) = delete;

  /// Owner thread only.
  Handle box(T&& v) {
    Node* n = take();
    if (n != nullptr) {
      n->value = std::move(v);
    } else {
      n = fresh();
      n->value = std::move(v);
    }
    ++stats_.live;
    return Handle(&n->value, Recycler{});
  }

  /// Copy-in overload: assigns straight into the recycled node, skipping the
  /// temporary + move a `box(T(v))` call would pay. Used by producers that
  /// box one template packet many times (bench_event's delivery fan-out).
  Handle box(const T& v) {
    Node* n = take();
    if (n != nullptr) {
      n->value = v;
    } else {
      n = fresh();
      n->value = v;
    }
    ++stats_.live;
    return Handle(&n->value, Recycler{});
  }

  void drain_remote() override {
    MaybeLock lk(lock_if());
    drain_remote_unlocked();
  }

  void purge_free() override {
    MaybeLock lk(lock_if());
    drain_remote_unlocked();
    for (Node* n : free_) delete n;
    free_.clear();
  }

 private:
  struct Node {
    T value{};  // must stay first: handles point at it, recycle casts back
    Node* remote_next = nullptr;
    BoxPool* home = nullptr;
  };

  static void route_free(T* t) noexcept {
    Node* n = reinterpret_cast<Node*>(t);
    BoxPool* home = n->home;
    *t = T{};  // releases held references on the freeing thread
    --home->stats_.live;
    if (home->owner_token_ != nullptr &&
        home->owner_token_ == current_owner_token()) {
      ++home->stats_.recycled;
      home->free_.push_back(n);
      return;
    }
    ++home->stats_.remote_freed;
    home->remote_.push(n);
  }

  Node* take() {
    MaybeLock lk(lock_if());
    if (locked_) ++stats_.spills;
    if (free_.empty() && !remote_.empty()) drain_remote_unlocked();
    if (free_.empty()) return nullptr;
    Node* n = free_.back();
    free_.pop_back();
    ++stats_.hits;
    return n;
  }

  Node* fresh() {
    ScopedAllocTag tag(tag_);
    ++stats_.misses;
    Node* n = new Node;
    n->home = this;
    return n;
  }

  void drain_remote_unlocked() noexcept {
    Node* n = remote_.take_all();
    while (n != nullptr) {
      Node* next = n->remote_next;
      ++stats_.remote_drained;
      ++stats_.recycled;
      free_.push_back(n);
      n = next;
    }
  }

  std::mutex* lock_if() { return locked_ ? &mu_ : nullptr; }

  AllocTag tag_;
  const void* owner_token_;
  const bool locked_;
  std::mutex mu_;  // engaged only when locked_ (orphan)
  std::vector<Node*> free_;
  RemoteFreeList<Node> remote_;
};

// --- frame arena --------------------------------------------------------------

/// Depth-indexed execution frames for the PLAN-P engines: frame d serves
/// call depth d, so the LIFO call discipline reuses the same locals / stack /
/// args vectors (and their capacity) packet after packet instead of
/// constructing fresh std::vectors per call. Frames are held by unique_ptr,
/// so references handed out stay stable while deeper frames are created.
/// Engine-confined (an engine runs on one shard at a time), so no routing.
template <typename T>
class FrameArena {
 public:
  struct Frame {
    std::vector<T> locals;
    std::vector<T> stack;
    std::vector<T> args;
  };

  FrameArena() = default;
  explicit FrameArena(std::string name) { register_pool_stats(name, &stats_); }
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

  Frame& at_depth(std::size_t d) {
    if (d >= frames_.size()) grow(d);
    ++stats_.hits;
    return *frames_[d];
  }

  std::size_t depth() const { return frames_.size(); }

  /// Poison support: overwrite every slot of frame `d` with `sentinel` so a
  /// later read of a stale slot is unmistakable. Called by the engines after
  /// a channel body finishes when poison mode is on.
  void scribble(std::size_t d, const T& sentinel) {
    if (d >= frames_.size()) return;
    Frame& f = *frames_[d];
    std::fill(f.locals.begin(), f.locals.end(), sentinel);
    std::fill(f.stack.begin(), f.stack.end(), sentinel);
    std::fill(f.args.begin(), f.args.end(), sentinel);
  }

  const PoolStats& stats() const { return stats_; }

 private:
  void grow(std::size_t d) {
    ScopedAllocTag tag(AllocTag::kFrame);
    while (frames_.size() <= d) {
      frames_.push_back(std::make_unique<Frame>());
      ++stats_.misses;
    }
  }

  std::vector<std::unique_ptr<Frame>> frames_;
  PoolStats stats_;
};

}  // namespace asp::mem
