#include "net/exec.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <tuple>

#include "mem/shard.hpp"
#include "net/medium.hpp"
#include "net/node.hpp"

namespace asp::net {

namespace {

// Union-find over node topology indices.
struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
};

// A p2p link may be cut iff crossing it costs nonzero sim time (that delay is
// the lookahead) and it draws no impairment randomness: the xorshift streams
// are per-medium but the paper experiments assert exact serial equivalence,
// and an impaired link transmitted from two threads would reorder its draws.
bool cuttable(const PointToPointLink& l) {
  return !l.impairments().any() && l.delay() > 0 && l.end(0) != nullptr &&
         l.end(1) != nullptr;
}

int topo(const Interface* i) { return static_cast<int>(i->node()->topo_index()); }

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

mem::BoxPool<CrossShardMsg>& cross_msg_boxes() {
  return mem::slot_pool<mem::BoxPool<CrossShardMsg>>("cross_msg", mem::AllocTag::kEvent);
}

std::uint32_t ParallelExecutor::Barrier::arrive_and_wait() {
  // Only this thread's arrival can complete the current epoch, so the value
  // read here is exact.
  const std::uint32_t e = epoch.load(std::memory_order_relaxed);
  // acq_rel: the last arriver acquires every earlier arriver's writes (slots,
  // mailbox pushes) through the RMW chain, then releases them all with the
  // epoch store.
  if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == parties) {
    arrived.store(0, std::memory_order_relaxed);
    epoch.store(e + 1, std::memory_order_release);
    epoch.notify_all();  // no system call unless a waiter has parked
    return e + 1;
  }
  for (int i = 0; i < spin; ++i) {
    if (epoch.load(std::memory_order_acquire) != e) return e + 1;
    cpu_relax();
  }
  while (epoch.load(std::memory_order_acquire) == e)
    epoch.wait(e, std::memory_order_acquire);
  return e + 1;
}

ParallelExecutor::ParallelExecutor(Network& net, int shards) : net_(net) {
  partition(shards);
  install();
}

ParallelExecutor::~ParallelExecutor() {
  if (!workers_.empty()) {
    stop_ = true;
    barrier_.arrive_and_wait();  // the start barrier, with stop_ set
    for (std::thread& t : workers_) t.join();
    // Workers drained their own channels on exit; sweep anything they freed
    // back to the coordinator's shard on the way out.
    mem::drain_remote_frees();
  }
  net_.set_run_override({}, {});
  // Rebind everything to the primary queue so the Network stays usable
  // serially. Events still pending in private queues die with them.
  EventQueue& q = net_.events();
  for (const auto& n : net_.nodes()) n->bind_events(q);
  for (const auto& m : net_.media()) {
    m->bind_events(q);
    if (auto* l = dynamic_cast<PointToPointLink*>(m.get())) {
      l->set_cross_poster(0, {});
      l->set_cross_poster(1, {});
    }
  }
}

void ParallelExecutor::partition(int requested) {
  // Network::add_node numbers nodes in creation order, so topo_index() is
  // each node's position in net_.nodes().
  const int n = static_cast<int>(net_.nodes().size());
  UnionFind uf(static_cast<std::size_t>(n));
  for (const auto& m : net_.media()) {
    if (auto* seg = dynamic_cast<EthernetSegment*>(m.get())) {
      // Segments are never cut: every attached station shares a shard.
      const auto& ifs = seg->interfaces();
      for (std::size_t i = 1; i < ifs.size(); ++i) uf.unite(topo(ifs[0]), topo(ifs[i]));
    } else if (auto* link = dynamic_cast<PointToPointLink*>(m.get())) {
      if (!cuttable(*link)) uf.unite(topo(link->end(0)), topo(link->end(1)));
    }
  }

  // Islands in order of their smallest node index (deterministic labels).
  std::vector<int> island_of(static_cast<std::size_t>(n), -1);
  std::vector<int> weight;  // nodes per island
  for (int i = 0; i < n; ++i) {
    int r = uf.find(i);
    if (island_of[static_cast<std::size_t>(r)] < 0) {
      island_of[static_cast<std::size_t>(r)] = static_cast<int>(weight.size());
      weight.push_back(0);
    }
    island_of[static_cast<std::size_t>(i)] = island_of[static_cast<std::size_t>(r)];
    ++weight[static_cast<std::size_t>(island_of[static_cast<std::size_t>(i)])];
  }
  islands_ = static_cast<int>(weight.size());

  int target = requested <= 0 ? islands_ : std::min(requested, islands_);
  if (target < 1) target = 1;

  // LPT greedy: heaviest island first into the least-loaded shard. Ties break
  // toward the lower island index / lower shard index, so the assignment is a
  // pure function of the topology.
  std::vector<int> order(static_cast<std::size_t>(islands_));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    std::size_t ua = static_cast<std::size_t>(a), ub = static_cast<std::size_t>(b);
    return weight[ua] != weight[ub] ? weight[ua] > weight[ub] : a < b;
  });
  std::vector<int> load(static_cast<std::size_t>(target), 0);
  std::vector<int> island_shard(static_cast<std::size_t>(islands_), 0);
  for (int isl : order) {
    int best = 0;
    for (int s = 1; s < target; ++s)
      if (load[static_cast<std::size_t>(s)] < load[static_cast<std::size_t>(best)])
        best = s;
    island_shard[static_cast<std::size_t>(isl)] = best;
    load[static_cast<std::size_t>(best)] += weight[static_cast<std::size_t>(isl)];
  }

  // Shard is immovable (atomics in the mailbox): build the vector at its
  // final size in place. Nothing resizes it afterwards, so the Shard*
  // captured by cross posters stay valid.
  shards_ = std::vector<Shard>(static_cast<std::size_t>(target));
  node_shard_.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < node_shard_.size(); ++i)
    node_shard_[i] = island_shard[static_cast<std::size_t>(island_of[i])];
}

void ParallelExecutor::install() {
  shards_[0].queue = &net_.events();
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    shards_[s].owned = std::make_unique<EventQueue>();
    shards_[s].queue = shards_[s].owned.get();
    shards_[s].queue->run_until(net_.events().now());  // sync clocks
  }

  for (const auto& n : net_.nodes())
    n->bind_events(*shards_[static_cast<std::size_t>(node_shard_[n->topo_index()])].queue);

  for (const auto& m : net_.media()) {
    auto* link = dynamic_cast<PointToPointLink*>(m.get());
    if (link == nullptr) {
      // Segment (or unplugged medium): every station shares one shard.
      int s = 0;
      if (auto* seg = dynamic_cast<EthernetSegment*>(m.get());
          seg != nullptr && !seg->interfaces().empty())
        s = shard_at(*seg->interfaces()[0]);
      m->bind_events(*shards_[static_cast<std::size_t>(s)].queue);
      continue;
    }
    int s0 = link->end(0) != nullptr ? shard_at(*link->end(0)) : 0;
    int s1 = link->end(1) != nullptr ? shard_at(*link->end(1)) : s0;
    // Link-state flips (schedule_link_state) run on end 0's shard.
    link->bind_events(*shards_[static_cast<std::size_t>(s0)].queue);
    if (s0 == s1) continue;

    // Cut link: each direction posts to the receiving shard's mailbox. The
    // poster runs on the SENDER's thread: the message comes from the
    // sender's pool and seq is the sender shard's private counter, so no two
    // messages from one sender shard ever tie on it.
    lookahead_ = std::min(lookahead_, link->delay());
    int end_shard[2] = {s0, s1};
    for (int recv = 0; recv < 2; ++recv) {
      Node* sender = link->end(1 - recv)->node();
      Shard* snd = &shards_[static_cast<std::size_t>(end_shard[1 - recv])];
      Shard* dst = &shards_[static_cast<std::size_t>(end_shard[recv])];
      std::uint32_t sender_topo = sender->topo_index();
      link->set_cross_poster(
          recv, [link, recv, snd, dst, sender_topo](SimTime arrival, Packet&& p) {
            snd->min_posted = std::min(snd->min_posted, arrival);
            dst->inbox[snd->post_parity].push(cross_msg_boxes().box(
                CrossShardMsg{.arrival = arrival,
                              .sent = snd->queue->now(),
                              .sender_topo = sender_topo,
                              .seq = ++snd->seq,
                              .link = link,
                              .end = recv,
                              .packet = std::move(p)}));
          });
    }
  }

  net_.set_run_override([this](SimTime t) { run_until(t); }, [this] { run(); });
  if (shards_.size() == 1) return;  // serial: no workers

  barrier_.parties = static_cast<int>(shards_.size());
  // With more shard threads than cores, a spinning waiter holds the core a
  // shard still running its window needs, so waiters park at once.
  if (shards_.size() > std::thread::hardware_concurrency()) barrier_.spin = 0;
  for (std::size_t s = 1; s < shards_.size(); ++s)
    workers_.emplace_back([this, s] { worker_main(static_cast<int>(s)); });
}

int ParallelExecutor::shard_of(const Node& n) const {
  const std::size_t i = n.topo_index();
  const auto& nodes = net_.nodes();
  return i < nodes.size() && nodes[i].get() == &n ? node_shard_[i] : 0;
}

void ParallelExecutor::worker_main(int shard) {
  // Pin this thread to pool set `shard`: every pool acquisition in the
  // window body is shard-local (mem/shard.hpp), and frees of foreign blocks
  // ride the remote-free channels drained at the barrier.
  mem::bind_shard(shard);
  for (;;) {
    const std::uint32_t epoch = barrier_.arrive_and_wait();  // a run starts
    if (stop_) return;
    shard_run(shard, epoch);
  }
}

void ParallelExecutor::schedule_merged(Shard& me) {
  if (me.merging.empty()) return;
  // Total deterministic order. Scheduling in sorted order hands out
  // increasing sequence numbers, so the queue's (time, sched, rank, seq)
  // tie-break reproduces exactly this order — matching the serial schedule.
  std::sort(me.merging.begin(), me.merging.end(),
            [](const CrossShardBox& a, const CrossShardBox& b) {
              return std::tie(a->arrival, a->sent, a->sender_topo, a->seq) <
                     std::tie(b->arrival, b->sent, b->sender_topo, b->seq);
            });
  for (CrossShardBox& m : me.merging) {
    assert(m->arrival > me.queue->now() && "window safety violated");
    // The same canonical key — (sender transmit clock, sender topo index)
    // — as the serial path, so a merged delivery sorts exactly where the
    // serial run would have put it. The box comes from this shard's pool.
    m->link->enqueue_arrival(*me.queue, m->arrival, m->sent, m->sender_topo,
                             m->end, std::move(m->packet));
  }
  me.cross_merged += me.merging.size();
  me.merging.clear();  // each message recycles into its sender's pool
}

void ParallelExecutor::shard_run(int shard, std::uint32_t epoch) {
  Shard& me = shards_[static_cast<std::size_t>(shard)];
  // Frames posted outside any window (setup code transmitting before the
  // run) may sit in either mailbox.
  me.inbox[0].drain(me.merging);
  me.inbox[1].drain(me.merging);
  schedule_merged(me);
  SimTime mine = me.queue->next_event_time();
  const SimTime W = lookahead_;
  for (;;) {
    me.next[(epoch + 1) & 1] = mine;
    epoch = barrier_.arrive_and_wait();
    // The window that just closed posted into inbox[(epoch - 1) & 1]; the
    // next one posts into the other.
    me.inbox[(epoch - 1) & 1].drain(me.merging);
    schedule_merged(me);

    // Every slot counts the frames still in flight toward its targets, so
    // every shard derives the same next_min — and the same decision.
    SimTime next = EventQueue::kNever;
    for (const Shard& s : shards_) next = std::min(next, s.next[epoch & 1]);
    if (next == EventQueue::kNever || (bounded_ && next > target_)) break;
    // W > 0 (cut links all have delay() > 0); W == kNever iff the shards
    // are fully disjoint, and the overflow guard yields one unbounded window.
    // Strict cap: any cross frame sent in the window arrives at
    // >= next + W > cap, never AT the cap (window-edge ties would race).
    SimTime cap = next > EventQueue::kNever - W ? EventQueue::kNever - 1 : next + W - 1;
    if (bounded_ && cap > target_) cap = target_;

    me.post_parity = static_cast<int>(epoch & 1);
    me.min_posted = EventQueue::kNever;
    me.events_run += me.queue->run_until(cap);
    // Reclaim blocks other shards freed back to us during the window.
    // Memory-only: event order is untouched.
    mem::drain_remote_frees();
    if (shard == 0) ++stats_.windows;
    mine = std::min(me.queue->next_event_time(), me.min_posted);
  }
  if (bounded_) {
    // Advance every clock to exactly t (no events remain at or before t).
    me.events_run += me.queue->run_until(target_);
    if (shard == 0) ++stats_.windows;
  }
  barrier_.arrive_and_wait();  // the run ends on every shard together
}

void ParallelExecutor::window_loop(SimTime t, bool bounded) {
  if (shards_.size() == 1) {
    // One effective shard (single island or shards=1): plain serial run on
    // the primary queue. Overrides would recurse through Network::run, so go
    // to the queue directly.
    if (bounded) {
      stats_.events_run += net_.events().run_until(t);
    } else {
      stats_.events_run += net_.events().run();
    }
    return;
  }
  target_ = t;
  bounded_ = bounded;
  shard_run(0, barrier_.arrive_and_wait());  // the start barrier wakes the workers
  stats_.events_run = 0;
  stats_.cross_messages = 0;
  for (const Shard& s : shards_) {
    stats_.events_run += s.events_run;
    stats_.cross_messages += s.cross_merged;
  }
}

void ParallelExecutor::run_until(SimTime t) { window_loop(t, true); }

void ParallelExecutor::run() { window_loop(0, false); }

}  // namespace asp::net
