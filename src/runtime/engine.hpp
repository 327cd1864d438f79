// AspRuntime: the per-node PLAN-P layer (the paper's Solaris kernel module).
//
// Installing a protocol hooks the node's IP layer: every arriving packet is
// offered to the protocol's channels; a packet whose type matches a channel's
// packet type is handed to that channel (all matching overloads run, each with
// its own channel state and a shared protocol state). Packets no channel
// claims fall through to standard IP behaviour.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "obs/metrics.hpp"
#include "planp/cache.hpp"
#include "planp/program.hpp"
#include "runtime/match_action.hpp"

namespace asp::runtime {

/// One coherent snapshot of a runtime's dispatch statistics, counted since
/// that AspRuntime was constructed. Returned by AspRuntime::stats(); the
/// live values are carried by the global metrics registry under
/// node/<name>/asp/* (which accumulates process-wide — the snapshot is the
/// per-instance delta).
struct RuntimeStats {
  std::uint64_t packets_handled = 0;  // consumed by a channel
  std::uint64_t packets_passed = 0;   // fell through to standard IP
  std::uint64_t packets_sent = 0;     // emitted via OnRemote/OnNeighbor
  std::uint64_t packets_dropped = 0;  // explicit drop() or TTL exhaustion
  std::uint64_t runtime_errors = 0;   // exceptions escaping a channel
};

class AspRuntime : public planp::EnvApi {
 public:
  explicit AspRuntime(asp::net::Node& node);
  ~AspRuntime();
  AspRuntime(const AspRuntime&) = delete;
  AspRuntime& operator=(const AspRuntime&) = delete;

  /// Downloads a protocol into this node: compiles `source` (parse, check,
  /// verify, specialize) and installs the result. Throws PlanPError /
  /// VerificationError, in which case the node is left on standard IP.
  const planp::Protocol& install(
      const std::string& source,
      planp::Protocol::Options opts = make_default_options());

  /// Installs a compiled protocol, which any number of other nodes may share:
  /// instantiates this node's engine and initializes this node's protocol
  /// and channel states. Nothing is compiled.
  const planp::Protocol& install(std::shared_ptr<const planp::Protocol> proto);

  /// Removes the protocol and restores standard IP processing.
  void uninstall();

  bool installed() const { return cur_ != nullptr; }
  const planp::Protocol& protocol() const { return *cur_->proto; }
  /// This node's instance of the installed protocol.
  planp::Engine& engine() { return *cur_->engine; }
  asp::net::Node& node() { return node_; }

  /// Medium whose utilization linkLoad() reports (the audio router monitors
  /// its outgoing segment). Defaults to the medium of the last interface.
  void set_monitored_medium(asp::net::Medium* m) { monitored_ = m; }

  /// Also run the hook on packets this node *sends* (end-host ASPs, e.g. the
  /// audio client transform applies on receive; the MPEG request rewriting
  /// could apply on send). Default: receive path only.
  // (Send-path hooking is expressed by the applications calling inject().)

  /// Feeds a locally generated packet through the installed protocol exactly
  /// as if it had arrived from the network. Returns true if a channel took it.
  bool inject(asp::net::Packet p);

  // --- statistics -------------------------------------------------------------
  /// Dispatch counters since construction, as one coherent snapshot. The same
  /// figures (plus per-channel dispatch counts and the packet handling-latency
  /// histogram node/<name>/asp/handle_us, sampled 1-in-16 dispatches) live in
  /// obs::registry().
  RuntimeStats stats() const;
  const std::string& log() const { return log_; }
  void clear_log() { log_.clear(); }

  // --- EnvApi -----------------------------------------------------------------
  void print(const std::string& s) override { log_ += s; }
  asp::net::Ipv4Addr this_host() override { return node_.addr(); }
  std::int64_t time_ms() override {
    return static_cast<std::int64_t>(node_.events().now() / asp::net::kNsPerMs);
  }
  std::int64_t link_load_percent() override;
  std::int64_t link_bandwidth_kbps() override;
  std::int64_t arrival_iface() override {
    return current_in_ != nullptr ? current_in_->index() : -1;
  }
  void on_remote(std::uint32_t chan_tag, asp::net::Packet packet) override;
  void on_neighbor(std::uint32_t chan_tag, asp::net::Packet packet) override;
  void deliver(asp::net::Packet packet) override;
  void drop() override { m_dropped_->inc(); }

 private:
  static planp::Protocol::Options make_default_options() {
    planp::Protocol::Options o;
    return o;
  }

  /// A shared protocol together with this node's engine instance and
  /// match-action table: the three retire as a unit so a reinstall from
  /// inside a channel handler cannot free the engine or table the in-flight
  /// dispatch loop is using. Declared so the table and engine go before the
  /// protocol they point into.
  struct Installed {
    std::shared_ptr<const planp::Protocol> proto;
    std::unique_ptr<planp::Engine> engine;
    MatchActionTable table;
  };

  /// The node's IP hook body: classifies `p` and runs its candidate actions.
  /// Returns true when a channel consumed the packet.
  bool on_packet(asp::net::Packet& p, asp::net::Interface* in);
  /// Runs one packet's candidate actions. `candidates` is the packet's
  /// classification for its transport shape; increments packets_passed and
  /// returns false when no action consumes the packet.
  bool run_actions(Installed* inst, std::uint64_t generation,
                   const std::vector<std::uint16_t>& candidates,
                   asp::net::Packet& p, asp::net::Interface* in);
  void send_remote(asp::net::Packet p);
  void send_neighbor(asp::net::Packet p);

  asp::net::Node& node_;
  std::unique_ptr<Installed> cur_;
  // Reentrancy: a channel's deliver() can reach application code that
  // reinstalls a protocol (the MPEG client swaps its reply ASP for the
  // capture ASP). The executing protocol is retired, not destroyed, until
  // dispatch unwinds; a generation counter stops the dispatch loop.
  std::vector<std::unique_ptr<Installed>> retired_;
  int dispatch_depth_ = 0;
  std::uint64_t generation_ = 0;
  planp::Value protocol_state_;
  std::vector<planp::Value> channel_states_;
  asp::net::Medium* monitored_ = nullptr;
  asp::net::Interface* current_in_ = nullptr;  // arrival interface during dispatch
  std::uint32_t network_tag_ = 0;  // interned "network" (untagged sends)

  // Instruments in the global registry (node/<name>/asp/*), cached at
  // construction; stats() subtracts base_ so snapshots are per-instance even
  // though the registry accumulates across runtimes sharing a node name.
  std::string metric_prefix_;
  obs::Counter* m_handled_ = nullptr;
  obs::Counter* m_passed_ = nullptr;
  obs::Counter* m_sent_ = nullptr;
  obs::Counter* m_dropped_ = nullptr;
  obs::Counter* m_errors_ = nullptr;
  obs::Histogram* m_handle_us_ = nullptr;
  std::uint32_t latency_probe_ = 0;  // 1-in-16 handle_us sampling phase
  std::vector<obs::Counter*> channel_counters_;  // aligned with channels
  RuntimeStats base_;
  std::string log_;
};

}  // namespace asp::runtime
