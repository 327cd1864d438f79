#include "mem/pool.hpp"

#include <algorithm>
#include <bit>
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

void note_event_slab_chunk(std::size_t bytes) {
  ++g_event_slab_chunks;
  g_event_slab_bytes += bytes;
}

std::uint64_t event_slab_chunk_count() { return g_event_slab_chunks.load(); }

// --- buffer pool --------------------------------------------------------------

// In the doubling [2^e, 2^(e+1)) the classes are 4, 5, 6 and 7 quarters of
// 2^e, and class 4 * (e - 6) + q - 4 holds q quarters (class 0 is 64 B).
int BufferPool::class_for_request(std::size_t n) {
  static_assert(class_capacity(kClasses - 1) == std::size_t{2} << 20, "classes end at 2 MiB");
  if (n <= kBaseCapacity) return 0;
  const int e = static_cast<int>(std::bit_width(n - 1)) - 1;  // 2^e <= n - 1
  const int q = static_cast<int>((n - 1) >> (e - 2)) + 1;     // quarters covering n
  return std::min(4 * (e - 6) + q - 4, kClasses);  // kClasses: unclassed
}

int BufferPool::class_for_capacity(std::size_t n) {
  if (n < kBaseCapacity) return -1;  // too small to guarantee any class
  const int e = static_cast<int>(std::bit_width(n)) - 1;  // 2^e <= n
  const int q = static_cast<int>(n >> (e - 2));           // whole quarters in n
  return std::min(4 * (e - 6) + q - 4, kClasses - 1);
}

BufferPool::Handle BufferPool::acquire(std::size_t capacity_hint) {
  ScopedAllocTag tag(AllocTag::kBuffer);
  const int c = class_for_request(capacity_hint);
  Node* n = obtain(c, std::min(c + 1, kClasses));
  // A recycled node already holds its class's capacity; a new one gets it.
  n->value.reserve(c < kClasses ? class_capacity(c) : capacity_hint);
  return share(n);
}

BufferPool::Handle BufferPool::adopt(Bytes&& bytes) {
  if (bytes.capacity() < kBaseCapacity) {
    // Too small to adopt: moving it over a recycled node would free that
    // node's pooled storage, and free_list_of would reserve it again. Copy
    // into a class-0 node instead.
    Handle h = acquire(bytes.size());
    h->assign(bytes.begin(), bytes.end());
    return h;
  }
  ScopedAllocTag tag(AllocTag::kBuffer);
  // Any idle node will do: the adopted storage replaces its own.
  Node* n = obtain(0, kClasses);
  n->value = std::move(bytes);
  return share(n);
}

void BufferPool::scrub(Bytes& b) noexcept {
  if (poison_enabled() && !b.empty()) std::memset(b.data(), kPoisonByte, b.size());
  b.clear();
}

int BufferPool::free_list_of(Bytes& b) noexcept {
  stats_.recycled_bytes += b.capacity();
  const int c = class_for_capacity(b.capacity());
  if (c >= 0) return c;
  // Tiny capacity: keep the node, drop the guarantee by parking it in class
  // 0 after reserving the base capacity (still amortized: happens once per
  // node).
  ScopedAllocTag tag(AllocTag::kBuffer);
  b.reserve(kBaseCapacity);
  return 0;
}

}  // namespace asp::mem
