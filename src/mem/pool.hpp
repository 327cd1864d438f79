// Shard-local pooled memory: the per-packet fast path must not touch the
// general-purpose allocator OR any shared mutable cache line.
//
// Line-rate packet processors (P4 targets, kernel ASPs like the paper's
// Solaris module) reach "as fast as the hardware allows" by recycling every
// per-packet object through freelists sized at install time. Every pool
// instance is owned by exactly ONE shard (mem/shard.hpp binds a shard to a
// thread), so the steady-state alloc/free path is plain single-threaded code
// — no locks, no atomics except relaxed stat counters — and cross-shard frees
// ride a lock-free MPSC remote-free list drained by the owner at window
// barriers, exactly how cross-shard frames already flow through
// net/mailbox.hpp.
//
//   NodePool          the core the three node pools below share: node
//                     layout, take-or-fresh, owner-token routing, drains.
//   BufferPool        recycles the byte vectors behind net::Buffer with their
//                     capacity, in four capacity classes per doubling.
//   VecPool<T>        same discipline for std::vector<T> (PLAN-P tuples).
//   BoxPool<T>        single-object boxes (in-flight Packets) so event
//                     callbacks capture one pointer instead of a Packet.
//   FrameArena<T>     per-engine, depth-indexed execution frames — engine-
//                     confined, unchanged by the sharding.
//
// A shared handle's control block lives in its own node, the way a STREAMS
// data block keeps its reference count in its own header: the node is
// recycled when shared_ptr releases that block, never earlier.
//
// Ownership & the remote-free protocol (DESIGN.md §6e):
//   * Every node records its HOME pool in a `home` field — the per-object
//     ownership header.
//   * Allocation only ever touches the calling shard's own instance.
//   * A free executed on the owning shard goes straight back on the freelist.
//   * A free executed anywhere else (a packet's buffer crossing a shard
//     boundary, a release after the owning thread exited, static
//     destruction) pushes the node onto the home pool's remote-free list: a
//     Treiber-stack CAS, never a lock, never a touch of the owner's
//     freelists.
//   * The owner drains its remote lists at window barriers (net/exec.cpp),
//     when a local freelist runs empty, and at thread exit — so remote frees
//     are reclaimed without ever synchronizing the hot path.
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
#include <type_traits>
#include <vector>

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
/// this to decide local freelist vs remote list — a single TLS read.
const void* current_owner_token() noexcept;

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
  obs::RelaxedU64 remote_freed;    // frees pushed onto the remote list
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

/// Registers a pool's stats under `name` (e.g. "mem/shard0/buffer") for
/// publish_metrics(). The pointer must stay valid for the process lifetime
/// (shard pool instances are leaked, so it does).
void register_pool_stats(const std::string& name, const PoolStats* stats);

/// Copies every registered pool's counters into obs::registry() as gauges
/// (mem/shard<K>/<pool>/{hits,misses,recycled,recycled_bytes,live,
/// remote_freed,remote_drained,spills}), plus mem/event/slab_{chunks,bytes}.
/// Benches call this right before exporting JSON.
void publish_metrics();

/// Plain-value totals across every registered pool (all shards + orphan).
/// Benches difference these around a steady-state loop: `spills` is the
/// "did anything take a mutex on the pool path" probe CI gates on, and
/// `remote_freed == remote_drained` after final drains proves no node is
/// stranded on a remote list.
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

/// Event-queue slab growth: one chunk of pooled calendar-queue entries
/// (net/event.cpp). Process-wide (queues are shard-confined but short-lived
/// in tests, so per-queue PoolStats registration would dangle); published as
/// mem/event/slab_chunks / slab_bytes.
void note_event_slab_chunk(std::size_t bytes);
std::uint64_t event_slab_chunk_count();

// --- remote-free lists --------------------------------------------------------

/// Lock-free MPSC stack of pool nodes: any thread pushes (Treiber CAS through
/// the node's `remote_next` link, so the push never clobbers the pooled
/// value), only the owning shard drains. The same design as net::Mailbox —
/// remote frees are to pools what cross-shard frames are to event queues, and
/// they synchronize the same way (release push / acquire drain).
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

  /// Owner only. Returns the whole chain (remote_next links), or nullptr.
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
  /// remote-free list into the local freelists.
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

// --- node pools ---------------------------------------------------------------

/// Room a node keeps for its shared handle's control block: the size of
/// libstdc++'s deleter-plus-allocator block (vtable pointer, use and weak
/// counts, the owned pointer and the one-node allocator; the empty deleter
/// takes no space). NodeAlloc::allocate checks the fit at compile time.
inline constexpr std::size_t kCtrlBlockBytes = 32;

/// The core the buffer, tuple and box pools share: the node layout,
/// take-or-fresh with its statistics, owner-token routing, and the drain and
/// purge sweeps. Each node holds one pooled value, its remote-free link and
/// its home pool — the per-object ownership header — and, when `kShared`,
/// the storage for its shared handle's control block.
///
/// `Derived` supplies `static void scrub(T&) noexcept`, run on the freeing
/// thread before the node goes home (drop held references, keep capacity),
/// and may hide `free_list_of`, which picks the freelist a recycled node
/// joins out of `kLists`.
///
/// Single-owner: obtain() and the drains run only on the owning shard's
/// thread (the orphan instance locks instead and counts spills). Frees run
/// on any thread and route by the node's home pool: onto its freelist when
/// the caller owns it, else onto its remote-free list.
template <typename Derived, typename T, bool kShared, int Lists = 1>
class NodePool : public PoolBase {
 protected:
  struct Node;

 public:
  /// Unique-handle deleter: scrubs the value, then sends the node home.
  struct Recycle {
    void operator()(T* v) const noexcept {
      Derived::scrub(*v);
      route_home(reinterpret_cast<Node*>(v));
    }
  };

  void drain_remote() final {
    MaybeLock lk(lock_if());
    drain_remote_unlocked();
  }

  void purge_free() final {
    MaybeLock lk(lock_if());
    drain_remote_unlocked();
    for (auto& list : free_) {
      for (Node* n : list) delete n;
      list.clear();
    }
  }

 protected:
  static constexpr int kLists = Lists;

  struct NoCtrl {};
  struct alignas(Node*) CtrlStorage {
    unsigned char bytes[kCtrlBlockBytes];
  };
  struct Node {
    T value{};  // must stay first: handles point at it, Recycle casts back
    Node* remote_next = nullptr;
    NodePool* home = nullptr;
    [[no_unique_address]] std::conditional_t<kShared, CtrlStorage, NoCtrl> ctrl;
  };

  /// `owner_token` identifies the owning shard for free-path routing
  /// (nullptr = orphan, always routed remotely); `locked` guards every
  /// owner-side operation with a mutex (orphan only); `tag` attributes the
  /// pool's own heap allocations.
  NodePool(const std::string& name, AllocTag tag, const void* owner_token,
           bool locked)
      : tag_(tag), owner_token_(owner_token), locked_(locked) {
    register_pool_stats(name, &stats_);
  }
  ~NodePool() override { purge_free(); }
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  /// Owner side: checks out a node off the first non-empty freelist in
  /// [first, last) — draining the remote list once if they are all empty —
  /// or else a new node.
  Node* obtain(int first = 0, int last = kLists) {
    MaybeLock lk(lock_if());
    if (locked_) ++stats_.spills;
    ++stats_.live;
    Node* n = pop(first, last);
    if (n == nullptr && first < last && !remote_.empty()) {
      drain_remote_unlocked();
      n = pop(first, last);
    }
    if (n != nullptr) {
      ++stats_.hits;
      return n;
    }
    ScopedAllocTag tag(tag_);
    ++stats_.misses;
    n = new Node;
    n->home = this;
    return n;
  }

  /// A shared handle to `n`'s value, its control block in `n`.
  std::shared_ptr<T> share(Node* n)
    requires kShared
  {
    return std::shared_ptr<T>(&n->value, Scrub{}, NodeAlloc<T>(n));
  }

  /// Default: a single freelist.
  static int free_list_of(T&) noexcept { return 0; }

  const AllocTag tag_;

 private:
  /// Shared-handle deleter: scrubs the value on the freeing thread. The node
  /// goes home later, when shared_ptr releases the control block.
  struct Scrub {
    void operator()(T* v) const noexcept { Derived::scrub(*v); }
  };

  /// One-node allocator for a shared handle's control block: allocate hands
  /// out the node's own storage, and deallocate sends the node home.
  /// shared_ptr runs the deleter when the last owner drops, and releases the
  /// block only after that and after the last weak_ptr has gone, as its last
  /// access to the block. So a node reaches a freelist or a remote list only
  /// once no thread can touch its control block any more.
  template <typename U>
  struct NodeAlloc {
    using value_type = U;
    Node* node;

    explicit NodeAlloc(Node* n) noexcept : node(n) {}
    template <typename V>
    NodeAlloc(const NodeAlloc<V>& o) noexcept : node(o.node) {}  // NOLINT: rebind

    U* allocate(std::size_t) noexcept {
      static_assert(sizeof(U) <= kCtrlBlockBytes && alignof(U) <= alignof(Node*),
                    "shared_ptr's control block does not fit a pool node");
      return reinterpret_cast<U*>(node->ctrl.bytes);
    }
    void deallocate(U*, std::size_t) noexcept { route_home(node); }
    friend bool operator==(const NodeAlloc& a, const NodeAlloc& b) {
      return a.node == b.node;
    }
  };

  /// Free path, any thread: the owner recycles onto its freelist; anyone
  /// else pushes onto the home pool's remote-free list.
  static void route_home(Node* n) noexcept {
    NodePool* home = n->home;
    --home->stats_.live;
    if (home->owner_token_ != nullptr &&
        home->owner_token_ == current_owner_token()) {
      home->recycle(n);
      return;
    }
    ++home->stats_.remote_freed;
    home->remote_.push(n);
  }

  void recycle(Node* n) noexcept {
    ++stats_.recycled;
    free_[static_cast<Derived*>(this)->free_list_of(n->value)].push_back(n);
  }

  Node* pop(int first, int last) noexcept {
    for (int i = first; i < last; ++i) {
      if (!free_[i].empty()) {
        Node* n = free_[i].back();
        free_[i].pop_back();
        return n;
      }
    }
    return nullptr;
  }

  void drain_remote_unlocked() noexcept {
    Node* n = remote_.take_all();
    while (n != nullptr) {
      Node* next = n->remote_next;
      ++stats_.remote_drained;
      recycle(n);
      n = next;
    }
  }

  std::mutex* lock_if() { return locked_ ? &mu_ : nullptr; }

  const void* owner_token_;
  const bool locked_;
  std::mutex mu_;  // engaged only when locked_ (orphan)
  std::vector<Node*> free_[kLists];
  RemoteFreeList<Node> remote_;
};

// --- buffer pool --------------------------------------------------------------

/// Recycles the `std::vector<std::uint8_t>` storage behind net::Buffer.
/// acquire() hands out a shared vector whose node, capacity intact, returns
/// to a capacity-classed freelist once the last reference — Payload, blob
/// Value, or aliased packet — and the last weak reference drop. The control
/// block lives in the node, so a steady-state acquire/release cycle performs
/// zero heap allocations.
class BufferPool
    : public NodePool<BufferPool, std::vector<std::uint8_t>, true, 61> {
 public:
  using Bytes = std::vector<std::uint8_t>;
  using Handle = std::shared_ptr<Bytes>;

  BufferPool(const std::string& name, const void* owner_token, bool locked)
      : NodePool(name, AllocTag::kBuffer, owner_token, locked) {}

  /// Empty vector with capacity >= `capacity_hint` (rounded to a class).
  Handle acquire(std::size_t capacity_hint);

  /// Wraps caller-built storage in a pooled handle: the vector's storage is
  /// adopted as-is (no copy); on release the node joins the freelist and the
  /// adopted capacity is recycled for future acquires. A vector with less
  /// than kBaseCapacity is copied into a class-0 node instead, so adopting
  /// it costs no allocation in steady state.
  Handle adopt(Bytes&& bytes);

 private:
  friend NodePool;

  // Capacity classes, four per doubling: 64, 80, 96, 112, 128, 160, ...,
  // 2 MiB, each a quarter of its doubling's base above the last. A request
  // of 64 bytes or more wastes less than a fifth of its buffer: a 1,400-byte
  // frame takes 1,536 bytes, where classes one doubling apart gave it 2,048.
  static constexpr std::size_t kBaseCapacity = 64;
  static constexpr int kClasses = kLists;  // 4 per doubling from 64 B to 2 MiB

  // Guaranteed capacity of class `c`: (4 + c % 4) quarters of 2^(c / 4 + 6).
  static constexpr std::size_t class_capacity(int c) {
    return std::size_t{4 + static_cast<unsigned>(c) % 4} << (c / 4 + 4);
  }

  // Smallest class whose guaranteed capacity covers `n` (for acquire).
  static int class_for_request(std::size_t n);
  // Largest class whose guaranteed capacity is <= `n` (for recycling).
  static int class_for_capacity(std::size_t n);

  /// Poisons (when on) and clears on the freeing thread, so storage is
  /// scrubbed while its references are provably dead.
  static void scrub(Bytes& b) noexcept;
  /// The capacity class a recycled vector joins; counts recycled_bytes.
  int free_list_of(Bytes& b) noexcept;
};

// --- generic vector pool ------------------------------------------------------

/// BufferPool's discipline for std::vector<T>: pooled shared vectors whose
/// element capacity survives recycling. Used for PLAN-P tuple storage
/// (VecPool<Value>), where the per-packet decode tuples dominate.
///
/// PoisonFill is a customization point invoked on release when poison mode
/// is on (before the vector is cleared), so stale references into recycled
/// tuple storage read sentinels. The default does nothing.
template <typename T>
struct NoPoison {
  void operator()(std::vector<T>&) const {}
};

template <typename T, typename PoisonFill = NoPoison<T>>
class VecPool : public NodePool<VecPool<T, PoisonFill>, std::vector<T>, true> {
  using Core = NodePool<VecPool, std::vector<T>, true>;

 public:
  using Vec = std::vector<T>;
  using Handle = std::shared_ptr<Vec>;

  VecPool(const std::string& name, AllocTag tag, const void* owner_token,
          bool locked)
      : Core(name, tag, owner_token, locked) {}

  /// Owner thread only (callers reach their own shard's instance through
  /// mem/shard.hpp). Empty vector, capacity from its previous life;
  /// `reserve_hint` is honored when that capacity falls short, so
  /// steady-state pushes never grow.
  Handle acquire(std::size_t reserve_hint) {
    auto* n = this->obtain();
    if (n->value.capacity() < reserve_hint) {
      ScopedAllocTag tag(this->tag_);
      n->value.reserve(reserve_hint);
    }
    return this->share(n);
  }

 private:
  friend Core;

  /// Destroys the elements — releasing their references (blobs pinning
  /// buffers) promptly — and keeps the capacity.
  static void scrub(Vec& v) noexcept {
    if (poison_enabled()) PoisonFill{}(v);
    v.clear();
  }
};

// --- box pool -----------------------------------------------------------------

/// Pools single objects of T behind a unique-owner handle whose deleter
/// recycles the node. The point: an event callback capturing a Handle is
/// pointer-sized, so moving a Packet into a box keeps the whole capture
/// inside SmallFn's inline buffer. No control block, so no storage for one.
template <typename T>
class BoxPool : public NodePool<BoxPool<T>, T, false> {
  using Core = NodePool<BoxPool, T, false>;

 public:
  using Handle = std::unique_ptr<T, typename Core::Recycle>;

  BoxPool(const std::string& name, AllocTag tag, const void* owner_token,
          bool locked)
      : Core(name, tag, owner_token, locked) {}

  /// Owner thread only.
  Handle box(T&& v) {
    auto* n = this->obtain();
    n->value = std::move(v);
    return Handle(&n->value);
  }

  /// Copy-in overload: assigns straight into the recycled node, skipping the
  /// temporary + move a `box(T(v))` call would pay. Used by producers that
  /// box one template packet many times (bench_event's delivery fan-out).
  Handle box(const T& v) {
    auto* n = this->obtain();
    n->value = v;
    return Handle(&n->value);
  }

 private:
  friend Core;

  /// Resets to T{} on the freeing thread, so held references — payload
  /// buffers — release promptly.
  static void scrub(T& v) noexcept { v = T{}; }
};

// --- frame arena --------------------------------------------------------------

/// Depth-indexed execution frames for the PLAN-P interpreter: frame d serves
/// call depth d, so the LIFO call discipline reuses the same locals / args
/// vectors (and their capacity) packet after packet instead of
/// constructing fresh std::vectors per call. Frames are held by unique_ptr,
/// so references handed out stay stable while deeper frames are created.
/// Engine-confined (an engine runs on one shard at a time), so no routing.
template <typename T>
class FrameArena {
 public:
  struct Frame {
    std::vector<T> locals;
    std::vector<T> args;
  };

  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

  Frame& at_depth(std::size_t d) {
    if (d >= frames_.size()) grow(d);
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
    std::fill(f.args.begin(), f.args.end(), sentinel);
  }

  /// Empties frame `d`, releasing every value it held (capacity is kept).
  void clear(std::size_t d) {
    if (d >= frames_.size()) return;
    frames_[d]->locals.clear();
    frames_[d]->args.clear();
  }

 private:
  void grow(std::size_t d) {
    ScopedAllocTag tag(AllocTag::kFrame);
    while (frames_.size() <= d) frames_.push_back(std::make_unique<Frame>());
  }

  std::vector<std::unique_ptr<Frame>> frames_;
};

}  // namespace asp::mem
