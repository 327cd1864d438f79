#include "runtime/engine.hpp"

#include <chrono>

namespace asp::runtime {

using planp::Value;

AspRuntime::AspRuntime(asp::net::Node& node) : node_(node) {
  obs::MetricsRegistry& reg = obs::registry();
  metric_prefix_ = "node/" + node.name() + "/asp/";
  m_handled_ = &reg.counter(metric_prefix_ + "packets_handled");
  m_passed_ = &reg.counter(metric_prefix_ + "packets_passed");
  m_sent_ = &reg.counter(metric_prefix_ + "packets_sent");
  m_dropped_ = &reg.counter(metric_prefix_ + "packets_dropped");
  m_errors_ = &reg.counter(metric_prefix_ + "runtime_errors");
  m_handle_us_ = &reg.histogram(metric_prefix_ + "handle_us");
  network_tag_ = asp::net::ChannelTags::intern("network");
  base_ = RuntimeStats{m_handled_->value(), m_passed_->value(), m_sent_->value(),
                       m_dropped_->value(), m_errors_->value()};
}

RuntimeStats AspRuntime::stats() const {
  return RuntimeStats{m_handled_->value() - base_.packets_handled,
                      m_passed_->value() - base_.packets_passed,
                      m_sent_->value() - base_.packets_sent,
                      m_dropped_->value() - base_.packets_dropped,
                      m_errors_->value() - base_.runtime_errors};
}

AspRuntime::~AspRuntime() {
  if (cur_ != nullptr) uninstall();
}

const planp::Protocol& AspRuntime::install(const std::string& source,
                                           planp::Protocol::Options opts) {
  // The old protocol goes first, so a program that fails to compile leaves
  // the node on standard IP.
  if (cur_ != nullptr) uninstall();
  return install(planp::Protocol::compile(source, opts));
}

const planp::Protocol& AspRuntime::install(
    std::shared_ptr<const planp::Protocol> proto) {
  if (cur_ != nullptr) uninstall();
  ++generation_;
  auto inst = std::make_unique<Installed>();
  inst->proto = std::move(proto);
  inst->engine = inst->proto->instantiate(*this);

  const auto& channels = inst->proto->checked().channels;
  if (!channels.empty()) {
    protocol_state_ = planp::default_value(channels[0]->ps_type);
  }
  channel_states_.clear();
  channel_states_.reserve(channels.size());
  for (std::size_t i = 0; i < channels.size(); ++i) {
    channel_states_.push_back(inst->engine->init_state(static_cast<int>(i)));
  }
  // Per-channel dispatch counters (overloads sharing a name share a counter).
  channel_counters_.clear();
  channel_counters_.reserve(channels.size());
  for (const auto& c : channels) {
    channel_counters_.push_back(
        &obs::registry().counter(metric_prefix_ + "channel/" + c->name + "/handled"));
  }

  // Compile the match-action table: channel name -> interned tag id, header
  // shape -> prepared action lists, each action carrying its decode plan,
  // channel index and metric handle (DESIGN.md §6c).
  inst->table = MatchActionTable::build(inst->proto->checked(), channel_counters_);

  cur_ = std::move(inst);
  node_.set_ip_hook([this](asp::net::Packet& p, asp::net::Interface& in) {
    return on_packet(p, &in);
  });
  return *cur_->proto;
}

void AspRuntime::uninstall() {
  node_.set_ip_hook(nullptr);
  ++generation_;
  if (dispatch_depth_ > 0 && cur_ != nullptr) {
    retired_.push_back(std::move(cur_));  // keep the executing engine alive
  }
  cur_.reset();
  channel_states_.clear();
}

bool AspRuntime::inject(asp::net::Packet p) { return on_packet(p, nullptr); }

bool AspRuntime::run_actions(Installed* inst, std::uint64_t generation,
                             const std::vector<std::uint16_t>& candidates,
                             asp::net::Packet& p, asp::net::Interface* in) {
  ++dispatch_depth_;
  bool taken = false;
  current_in_ = in;
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    if (generation_ != generation) break;  // protocol swapped mid-dispatch
    const std::uint16_t i = candidates[j];
    const MatchAction& a = inst->table.action(i);
    // The plan checks the packet; the engine reads it (the JIT in place, the
    // interpreter through its own decode).
    if (!planp::match_packet(p, *a.plan)) continue;
    // Handler wall-clock is sampled 1-in-16 (the first dispatch always):
    // two clock reads per packet cost more than the whole classification on
    // the fast path, and the latency distribution doesn't need every point.
    const bool timed = (latency_probe_++ & 0xF) == 0;
    std::chrono::steady_clock::time_point t0;
    if (timed) t0 = std::chrono::steady_clock::now();
    try {
      planp::States out = inst->engine->run_channel(a.channel_idx, protocol_state_,
                                                    channel_states_[i], p);
      if (generation_ == generation) {
        protocol_state_ = std::move(out.ps);
        channel_states_[i] = std::move(out.ss);
      }
      m_handled_->inc();
      if (a.handled != nullptr) a.handled->inc();
      taken = true;
    } catch (const planp::PlanPException& e) {
      // An exception escaping a channel aborts that packet's processing; the
      // packet is consumed (the protocol claimed it) but states are kept.
      m_errors_->inc();
      log_ += "[runtime] unhandled exception '" + e.name + "' in channel '" +
              a.def->name + "'\n";
      taken = true;
    }
    // Wall-clock handler cost (the engine runs in zero sim-time): this is
    // where interp vs JIT shows up per packet.
    if (timed) {
      m_handle_us_->observe(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    }
  }
  current_in_ = nullptr;
  --dispatch_depth_;
  if (dispatch_depth_ == 0) retired_.clear();
  if (!taken) m_passed_->inc();
  return taken;
}

bool AspRuntime::on_packet(asp::net::Packet& p, asp::net::Interface* in) {
  if (cur_ == nullptr) return false;
  Installed* inst = cur_.get();  // stays alive via retired_ across reinstalls
  std::uint64_t generation = generation_;

  // User-channel packets classify by interned tag; untagged traffic goes to
  // the distinguished `network` channels (paper §2).
  const MatchActionTable::Rule* rule = inst->table.classify(p.channel_tag);
  if (rule == nullptr) {  // unknown tag: no channel can match, pass to IP
    m_passed_->inc();
    return false;
  }
  return run_actions(inst, generation,
                     rule->by_proto[MatchActionTable::proto_slot(p)], p, in);
}

std::int64_t AspRuntime::link_load_percent() {
  asp::net::Medium* m = monitored_;
  if (m == nullptr && node_.iface_count() > 0) {
    m = node_.iface(static_cast<int>(node_.iface_count()) - 1).medium();
  }
  if (m == nullptr) return 0;
  double u = m->utilization();
  if (u < 0) u = 0;
  if (u > 1) u = 1;
  return static_cast<std::int64_t>(u * 100.0 + 0.5);
}

std::int64_t AspRuntime::link_bandwidth_kbps() {
  asp::net::Medium* m = monitored_;
  if (m == nullptr && node_.iface_count() > 0) {
    m = node_.iface(static_cast<int>(node_.iface_count()) - 1).medium();
  }
  if (m == nullptr) return 0;
  return static_cast<std::int64_t>(m->bandwidth_bps() / 1000.0);
}

void AspRuntime::on_remote(std::uint32_t chan_tag, asp::net::Packet packet) {
  // The distinguished `network` channel emits untagged traffic (tag 0).
  packet.channel_tag = chan_tag == network_tag_ ? 0u : chan_tag;
  send_remote(std::move(packet));
}

void AspRuntime::send_remote(asp::net::Packet p) {
  p.id = node_.next_packet_id();
  // Defense in depth: even verified protocols respect TTL.
  if (p.ip.ttl <= 1) {
    m_dropped_->inc();
    return;
  }
  --p.ip.ttl;
  m_sent_->inc();
  if (node_.owns(p.ip.dst)) {
    node_.deliver_local(p);
    return;
  }
  node_.forward(std::move(p));
}

void AspRuntime::on_neighbor(std::uint32_t chan_tag, asp::net::Packet packet) {
  packet.channel_tag = chan_tag == network_tag_ ? 0u : chan_tag;
  send_neighbor(std::move(packet));
}

void AspRuntime::send_neighbor(asp::net::Packet p) {
  p.id = node_.next_packet_id();
  m_sent_->inc();
  // L2 semantics: emit on every attached segment except the one the packet
  // arrived on (a locally generated packet floods all interfaces). This is
  // what lets an ASP implement a learning Ethernet bridge.
  int skip = current_in_ != nullptr ? current_in_->index() : -1;
  for (std::size_t i = 0; i < node_.iface_count(); ++i) {
    if (static_cast<int>(i) == skip) continue;
    node_.iface(static_cast<int>(i)).transmit(p);
  }
}

void AspRuntime::deliver(asp::net::Packet packet) {
  packet.id = node_.next_packet_id();
  node_.deliver_local(packet);
}

}  // namespace asp::runtime
