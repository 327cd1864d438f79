#include "mem/shard.hpp"

#include <cassert>
#include <mutex>

namespace asp::mem {

// --- slot factory registry ----------------------------------------------------

namespace {
// Leaked: factories register from static-local initializers in slot_pool()
// (planp's tuple_pool, net's packet_boxes) whose order relative to this
// file's statics is unspecified.
std::vector<ShardPools::SlotFactory>& slot_factories() {
  static auto* v = new std::vector<ShardPools::SlotFactory>;
  return *v;
}
std::mutex& slot_mu() {
  static auto* mu = new std::mutex;
  return *mu;
}
}  // namespace

int ShardPools::register_slot(SlotFactory f) {
  std::lock_guard<std::mutex> lock(slot_mu());
  auto& v = slot_factories();
  assert(v.size() < static_cast<std::size_t>(kMaxSlots) && "raise kMaxSlots");
  v.push_back(f);
  return static_cast<int>(v.size()) - 1;
}

// --- shard pool set -----------------------------------------------------------

ShardPools::ShardPools(int id)
    : id_(id),
      locked_(id < 0),
      label_(id < 0 ? "orphan" : "shard" + std::to_string(id)),
      buffers_("mem/" + label_ + "/buffer", token(), locked_) {
  pools_.push_back(&buffers_);
}

PoolBase* ShardPools::slot(int s) {
  assert(s >= 0 && s < kMaxSlots);
  // Owner-thread-only for shard instances; the orphan can be reached from
  // several dying threads at once, so its slot table locks.
  MaybeLock lk(locked_ ? &slot_mu() : nullptr);
  if (slots_[s] == nullptr) {
    SlotFactory f;
    if (locked_) {
      f = slot_factories()[static_cast<std::size_t>(s)];  // already locked
    } else {
      std::lock_guard<std::mutex> lock(slot_mu());
      f = slot_factories()[static_cast<std::size_t>(s)];
    }
    PoolBase* p = f(*this);
    pools_.push_back(p);
    slots_[s] = p;
  }
  return slots_[s];
}

void ShardPools::drain_remote() {
  MaybeLock lk(locked_ ? &slot_mu() : nullptr);  // guards pools_ iteration
  for (PoolBase* p : pools_) p->drain_remote();
}

void ShardPools::purge_free() {
  MaybeLock lk(locked_ ? &slot_mu() : nullptr);
  for (PoolBase* p : pools_) p->purge_free();
}

void ShardPools::reset_stats_for_test() {
  MaybeLock lk(locked_ ? &slot_mu() : nullptr);
  for (PoolBase* p : pools_) p->reset_stats_for_test();
}

// --- registry + thread binding ------------------------------------------------

namespace {

struct Registry {
  std::mutex mu;
  std::vector<ShardPools*> shards;  // leaked instances, indexed by id
  std::vector<bool> in_use;         // id currently bound to a live thread
};

Registry& registry() {
  static auto* r = new Registry;
  return *r;
}

// Trivially destructible TLS: readable even during static destruction,
// after the Binder below has run.
thread_local ShardPools* t_shard = nullptr;
thread_local bool t_tls_dead = false;

ShardPools& orphan_pools() {
  static auto* o = new ShardPools(-1);
  return *o;
}

ShardPools* acquire_id(int preferred) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  int id = -1;
  if (preferred >= 0) {
    if (preferred >= static_cast<int>(r.shards.size())) {
      r.shards.resize(static_cast<std::size_t>(preferred) + 1, nullptr);
      r.in_use.resize(static_cast<std::size_t>(preferred) + 1, false);
    }
    if (!r.in_use[static_cast<std::size_t>(preferred)]) id = preferred;
  }
  if (id < 0) {
    for (std::size_t i = 0; i < r.shards.size(); ++i) {
      if (!r.in_use[i]) {
        id = static_cast<int>(i);
        break;
      }
    }
  }
  if (id < 0) {
    id = static_cast<int>(r.shards.size());
    r.shards.push_back(nullptr);
    r.in_use.push_back(false);
  }
  if (r.shards[static_cast<std::size_t>(id)] == nullptr) {
    r.shards[static_cast<std::size_t>(id)] = new ShardPools(id);  // leaked, reused
  }
  r.in_use[static_cast<std::size_t>(id)] = true;
  return r.shards[static_cast<std::size_t>(id)];
}

void release_id(ShardPools* sp) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.in_use[static_cast<std::size_t>(sp->id())] = false;
}

// Per-thread binding holder. Destruction order on thread exit: drains the
// shard's channels one last time, releases the id for reuse, and marks the
// TLS slot dead so later pool use (static destruction) takes the orphan.
struct Binder {
  ShardPools* pools = nullptr;
  ~Binder() {
    if (pools != nullptr) {
      pools->drain_remote();
      release_id(pools);
    }
    t_shard = nullptr;
    t_tls_dead = true;
  }
};

}  // namespace

void bind_shard(int preferred_id) {
  if (t_tls_dead) return;  // too late to bind; orphan serves this thread
  static thread_local Binder binder;
  if (binder.pools != nullptr) {
    if (preferred_id < 0 || binder.pools->id() == preferred_id) {
      t_shard = binder.pools;
      return;
    }
    // Rebind to a specific id: hand the old instance back first.
    binder.pools->drain_remote();
    release_id(binder.pools);
    binder.pools = nullptr;
    t_shard = nullptr;
  }
  binder.pools = acquire_id(preferred_id);
  t_shard = binder.pools;
}

ShardPools& shard() {
  if (t_shard != nullptr) return *t_shard;
  if (t_tls_dead) return orphan_pools();
  bind_shard(-1);
  return *t_shard;
}

ShardPools* shard_if_bound() noexcept { return t_shard; }

const void* current_owner_token() noexcept { return t_shard; }

void drain_remote_frees() {
  if (t_shard != nullptr) t_shard->drain_remote();
}

void reset_for_test() {
  ShardPools& sp = shard();
  sp.drain_remote();
  sp.purge_free();
  sp.reset_stats_for_test();
  ShardPools& orphan = orphan_pools();
  orphan.drain_remote();
  orphan.purge_free();
  orphan.reset_stats_for_test();
}

BufferPool& buffer_pool() { return shard().buffers(); }

}  // namespace asp::mem
