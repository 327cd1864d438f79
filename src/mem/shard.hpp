// Shard registry: binds one ShardPools instance (a full set of memory pools
// — buffers and every slot-registered pool) to each executor shard's thread,
// so the steady-state alloc/free path is single-threaded by construction
// (DESIGN.md §6e).
//
// Binding model:
//   * `bind_shard(k)` pins the calling thread to pool set `k` —
//     ParallelExecutor workers call it with their shard index at thread
//     start; the coordinator/serial thread lazily binds on first pool use
//     (it gets shard 0 because it touches pools first).
//   * Instances are leaked and indexed by id in a registry; when a thread
//     exits, its final remote frees are drained and the id returns to a
//     free list, so the NEXT bound thread reuses the same warmed instance
//     (and its registered metric names stay unique).
//   * After a thread's binding is torn down (static destruction order),
//     pool use falls back to the locked ORPHAN instance; every such
//     operation counts in `spills`, which steady-state benches assert == 0.
//
// Slots: subsystems own pool flavors the mem layer must not know about
// (planp's VecPool<Value>, net's BoxPool<Packet>). Their accessors call
// slot_pool<P>(), which registers a factory once (process-wide, one slot id)
// and returns the calling shard's instance — each shard builds its own
// lazily, names it "mem/<label>/<name>", and wires it into the shard's
// barrier drain.
#pragma once

#include <string>
#include <vector>

#include "mem/pool.hpp"

namespace asp::mem {

/// One shard's full set of pools. Owner-thread-only except where noted;
/// the orphan instance (id < 0) locks every owner-side operation instead.
class ShardPools {
 public:
  static constexpr int kMaxSlots = 8;
  /// Builds a subsystem pool for `sp`, registered once per process. The
  /// returned pool is owned by `sp` (leaked with it) and joins its
  /// drain/purge/reset sweeps.
  using SlotFactory = PoolBase* (*)(ShardPools&);

  /// id >= 0: a shard instance labeled "shard<id>"; id < 0: the orphan
  /// instance ("orphan"), which locks and counts spills.
  explicit ShardPools(int id);
  ShardPools(const ShardPools&) = delete;
  ShardPools& operator=(const ShardPools&) = delete;

  int id() const { return id_; }
  const std::string& label() const { return label_; }
  bool locked() const { return locked_; }
  /// Free-path routing token: matches current_owner_token() exactly when
  /// the calling thread owns this instance. nullptr for the orphan, so
  /// orphan frees always route through the remote channel.
  const void* token() const { return locked_ ? nullptr : this; }

  BufferPool& buffers() { return buffers_; }

  static int register_slot(SlotFactory f);
  /// The shard's instance for slot `s`, built on first use.
  PoolBase* slot(int s);

  /// Barrier drain: reclaims every pool's remote-free channel.
  void drain_remote();
  /// Test hooks — see mem::reset_for_test().
  void purge_free();
  void reset_stats_for_test();

 private:
  const int id_;
  const bool locked_;
  const std::string label_;
  BufferPool buffers_;
  PoolBase* slots_[kMaxSlots] = {};
  std::vector<PoolBase*> pools_;  // buffers_, then built slots
};

/// The calling thread's pool set, lazily binding the lowest free shard id
/// (the serial/coordinator thread gets shard 0). Falls back to the orphan
/// instance once the thread's binding has been torn down.
ShardPools& shard();

/// The calling thread's pool set if bound, else nullptr (never the orphan).
ShardPools* shard_if_bound() noexcept;

/// Pins the calling thread to pool set `preferred_id` (creating it if
/// needed; if that id is owned by another thread, the lowest free id is
/// used instead). Executor workers call this with their shard index so
/// pool instances line up 1:1 with executor shards.
void bind_shard(int preferred_id);

/// Barrier hook: drains every remote-free channel of the calling thread's
/// shard. No-op on unbound threads. net/exec.cpp calls this after each
/// shard window.
void drain_remote_frees();

/// Test hook: drains, purges every freelist, and zeroes every stat counter
/// (except `live`) of the calling thread's shard AND the orphan instance,
/// so pool-stat assertions see a deterministic baseline regardless of which
/// tests ran earlier in the binary. Other shards' instances are owned by
/// other threads and are left alone.
void reset_for_test();

/// The calling shard's buffer pool.
BufferPool& buffer_pool();

/// The calling shard's instance of slot pool type `P`, built on first use
/// per shard as `P("mem/<label>/<name>", tag, token, locked)`. One slot per
/// type: the first call's `name` and `tag` serve every shard. The steady path
/// is one TLS read and one compare; the cached instance refreshes itself
/// after a rebind or TLS teardown.
template <typename P>
P& slot_pool(const char* name, AllocTag tag) {
  static const char* const s_name = name;
  static const AllocTag s_tag = tag;
  static const int slot =
      ShardPools::register_slot([](ShardPools& sp) -> PoolBase* {
        return new P("mem/" + sp.label() + "/" + s_name, s_tag, sp.token(),
                     sp.locked());
      });
  struct Cache {
    const ShardPools* sp = nullptr;
    P* pool = nullptr;
  };
  static thread_local Cache cache;
  ShardPools& sp = shard();
  if (cache.sp != &sp) {
    cache.sp = &sp;
    cache.pool = static_cast<P*>(sp.slot(slot));
  }
  return *cache.pool;
}

}  // namespace asp::mem
