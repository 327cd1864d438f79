// ParallelExecutor: conservative sharded execution of a Network (DESIGN.md
// §6f).
//
// The topology is partitioned into islands — maximal groups of nodes joined
// by Ethernet segments or by point-to-point links that cannot be cut (zero
// delay, or impairments configured, since impairment RNG draws must stay in
// serial order). Islands are merged into N shards by a greedy min-cut/LPT
// heuristic; each shard owns a private EventQueue driven by its own thread
// (the caller's thread drives shard 0, which reuses the Network's primary
// queue so net.now() stays meaningful).
//
// Time advances in bounded-lookahead windows. With W = the minimum delay over
// cut links, every shard may safely run up to cap = next_min + W - 1, where
// next_min is the earliest pending event anywhere: any frame transmitted in
// the window arrives at sender_now + delay >= next_min + W > cap, i.e.
// strictly after the window, so no shard can receive an event in its past.
//
// One window costs one barrier. Every shard thread runs the same loop: run
// its queue to the cap, publish min(its next event, the earliest arrival it
// posted across a cut link) in its slot, arrive at the barrier, derive the
// same next cap from every slot, and merge its own mailbox. Cross-shard
// frames travel through lock-free mailboxes (mailbox.hpp) and are merged
// sorted by (arrival, sent, sender_topo, seq), so a run with N shards is
// byte-identical to the serial run.
//
// Threading: construct, run_until()/run() (or net.run_until() — overrides are
// installed), and destroy all from ONE thread. The destructor parks and joins
// the workers and rebinds every node/medium to the primary queue, leaving the
// Network usable serially again (events still pending in private shard queues
// at that point are dropped — destroy the executor only after a run drains).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "net/event.hpp"
#include "net/mailbox.hpp"
#include "net/network.hpp"

namespace asp::net {

class ParallelExecutor {
 public:
  struct Stats {
    std::uint64_t windows = 0;         ///< barrier iterations
    std::uint64_t cross_messages = 0;  ///< frames merged through mailboxes
    std::uint64_t events_run = 0;      ///< summed over shards (valid when idle)
  };

  /// Partitions `net` and installs run overrides. `shards` is the requested
  /// shard count; the effective count is min(shards, islands) and `shards<=0`
  /// means one shard per island. The Network must outlive the executor, and
  /// the topology must not be mutated while the executor is attached.
  explicit ParallelExecutor(Network& net, int shards = 0);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Windowed parallel equivalents of EventQueue::run_until / run. Calling
  /// net.run_until()/net.run() lands here via the installed overrides.
  void run_until(SimTime t);
  void run();

  int shard_count() const { return static_cast<int>(shards_.size()); }
  int island_count() const { return islands_; }
  /// Cross-shard lookahead W (min delay over cut links); kNever if no link
  /// was cut (single effective shard).
  SimTime lookahead() const { return lookahead_; }
  /// Shard owning `n`'s event queue (0 for a node of another network).
  int shard_of(const Node& n) const;
  const Stats& stats() const { return stats_; }

 private:
  struct Shard {
    EventQueue* queue = nullptr;        // shard 0: &net.events()
    std::unique_ptr<EventQueue> owned;  // shards 1..N-1
    std::vector<CrossShardBox> merging;  // drain buffer, reused every window
    // Written by this shard's thread (posters run on the sender's thread).
    std::uint64_t seq = 0;    // cross-send counter
    int post_parity = 0;      // inbox parity of the window being run
    SimTime min_posted = EventQueue::kNever;  // earliest arrival posted this window
    std::uint64_t events_run = 0;
    std::uint64_t cross_merged = 0;
    // Read by every shard after each barrier: min(next event, min_posted),
    // double-buffered by barrier parity.
    alignas(64) SimTime next[2] = {EventQueue::kNever, EventQueue::kNever};
    // Pushed by other shards; a window posts into inbox[its parity] while
    // the owner drains the other one.
    Mailbox inbox[2];
  };

  // Window barrier over every shard thread: a count of completed barriers on
  // its own cache line. Waiters spin, then park in std::atomic::wait.
  struct Barrier {
    // Pause iterations a waiter spins before parking. Most windows close
    // within the spin, so a window costs no system call; a long wait (the
    // run is idle between run_until calls, or one shard has far more work)
    // parks instead of burning a core.
    static constexpr int kSpinIterations = 4096;

    int parties = 1;
    int spin = kSpinIterations;  // 0 when the shard threads outnumber the cores
    alignas(64) std::atomic<std::uint32_t> epoch{0};
    alignas(64) std::atomic<int> arrived{0};
    /// Returns the new epoch (the number of barriers completed so far).
    std::uint32_t arrive_and_wait();
  };

  void partition(int requested);
  void install();
  int shard_at(const Interface& i) const {
    return node_shard_[i.node()->topo_index()];
  }
  void window_loop(SimTime t, bool bounded);
  void shard_run(int shard, std::uint32_t epoch);
  void schedule_merged(Shard& me);
  void worker_main(int shard);

  Network& net_;
  std::vector<Shard> shards_;
  std::vector<int> node_shard_;  // indexed by Node::topo_index()
  int islands_ = 0;
  SimTime lookahead_ = EventQueue::kNever;
  Stats stats_;

  // Run parameters: written by the coordinator (caller thread, shard 0)
  // before the start barrier, read by workers (shards 1..N-1) after it.
  std::vector<std::thread> workers_;
  Barrier barrier_;
  SimTime target_ = 0;
  bool bounded_ = false;
  bool stop_ = false;
};

}  // namespace asp::net
