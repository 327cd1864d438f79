#include "apps/http/experiment.hpp"

#include "apps/asp_files.hpp"

namespace asp::apps {

using asp::net::ip;
using asp::net::Ipv4Addr;
using asp::net::millis;
using asp::net::Packet;
using asp::net::seconds;
using asp::net::SimTime;

namespace {
const Ipv4Addr kVirtual = ip("10.0.9.9");
const Ipv4Addr kServer0 = ip("10.0.2.1");
const Ipv4Addr kServer1 = ip("10.0.2.2");
}  // namespace

const char* http_config_name(HttpConfig c) {
  switch (c) {
    case HttpConfig::kSingleServer: return "single-server";
    case HttpConfig::kAspGateway: return "asp-gateway";
    case HttpConfig::kBuiltinGateway: return "builtin-c-gateway";
    case HttpConfig::kDisjoint: return "two-servers-disjoint";
  }
  return "?";
}

HttpExperiment::HttpExperiment(Options opts) : opts_(std::move(opts)) { build(); }
HttpExperiment::~HttpExperiment() = default;

void HttpExperiment::build() {
  gateway_ = &net_.add_router("gateway");

  // Server segment: 100 Mb/s.
  auto& server_lan = net_.segment("server-lan", 100e6, asp::net::micros(20));
  net_.attach(*gateway_, server_lan, ip("10.0.2.254"));

  int nservers = opts_.config == HttpConfig::kSingleServer ? 1 : 2;
  for (int s = 0; s < nservers; ++s) {
    asp::net::Node& n = net_.add_node("server" + std::to_string(s));
    net_.attach(n, server_lan, s == 0 ? kServer0 : kServer1);
    n.routes().add_default(0, ip("10.0.2.254"));
    server_nodes_.push_back(&n);
    servers_.push_back(std::make_unique<HttpServer>(n, opts_.server));
  }

  // Client machines: dedicated 10 Mb/s access links (the paper's clients sit
  // on 10 Mb Ethernet).
  std::vector<TraceEntry> trace = make_trace(opts_.trace_accesses);
  for (int c = 0; c < opts_.client_machines; ++c) {
    asp::net::Node& n = net_.add_node("client" + std::to_string(c));
    Ipv4Addr caddr(10, 1, static_cast<std::uint8_t>(c + 1), 1);
    Ipv4Addr gaddr(10, 1, static_cast<std::uint8_t>(c + 1), 254);
    net_.link(n, caddr, *gateway_, gaddr, 10e6, millis(1));
    n.routes().add_default(0, gaddr);
    client_nodes_.push_back(&n);

    Ipv4Addr target;
    switch (opts_.config) {
      case HttpConfig::kSingleServer: target = kServer0; break;
      case HttpConfig::kDisjoint: target = (c % 2 == 0) ? kServer0 : kServer1; break;
      default: target = kVirtual; break;
    }
    // Rotate the trace per machine so the pools do not run in lockstep.
    std::vector<TraceEntry> rotated(trace.begin() + (c * 997) % trace.size(),
                                    trace.end());
    rotated.insert(rotated.end(), trace.begin(),
                   trace.begin() + (c * 997) % trace.size());
    pools_.push_back(std::make_unique<HttpClientPool>(
        n, target, std::move(rotated), opts_.processes_per_machine));
  }

  switch (opts_.config) {
    case HttpConfig::kAspGateway: install_asp_gateway(); break;
    case HttpConfig::kBuiltinGateway: install_builtin_gateway(); break;
    default: break;  // plain IP forwarding, no gateway CPU model
  }
}

bool HttpExperiment::delay_and_forward() {
  // Single forwarding core: packets queue behind gw_busy_until_. All gateway
  // state lives on the gateway's shard, so read that node's clock — under a
  // parallel run net_.now() is shard 0's clock, not necessarily ours.
  SimTime now = gateway_->events().now();
  SimTime cost = asp::net::micros(opts_.gateway_cost_us);
  SimTime start = gw_busy_until_ > now ? gw_busy_until_ : now;
  if (start - now > asp::net::millis(50)) return false;  // input queue full: drop
  gw_busy_until_ = start + cost;
  ++gw_packets_;
  return true;
}

void HttpExperiment::install_asp_gateway() {
  gw_rt_ = std::make_unique<asp::runtime::AspRuntime>(*gateway_);
  planp::Protocol::Options popts;
  // The two-server gateway cannot be *proven* to terminate by the
  // conservative analysis (the destination alternates between two literals
  // in the abstract); it is loaded through the authenticated path, exactly
  // the paper's provision for legitimate-but-unprovable protocols (§2.1).
  popts.require_verified = false;
  const char* file = "http_gateway";
  switch (opts_.strategy) {
    case GatewayStrategy::kModulo: file = "http_gateway"; break;
    case GatewayStrategy::kHash: file = "http_gateway_hash"; break;
    case GatewayStrategy::kFailover: file = "http_gateway_failover"; break;
  }
  // The files' virtualServer is kVirtual; their physical servers are
  // replaced by this rig's two.
  gw_rt_->install(
      asp_source(file, {{"server0", kServer0}, {"server1", kServer1}}), popts);

  // Wrap the runtime in the CPU-cost queue.
  gateway_->set_ip_hook([this](Packet& p, asp::net::Interface&) {
    if (!delay_and_forward()) return true;  // dropped at the gateway input
    // Boxed so the deferred Packet fits the EventFn inline capture budget;
    // the box is then forwarded as is. Scheduled on the gateway's own queue
    // (shard-local under an executor).
    gateway_->events().schedule_at(
        gw_busy_until_, [this, box = asp::net::packet_boxes().box(p)]() mutable {
          if (!gw_rt_->inject(*box)) {
            if (box->ip.ttl > 1) {
              --box->ip.ttl;
              gateway_->forward(std::move(box));
            }
          }
        });
    return true;
  });
}

void HttpExperiment::install_builtin_gateway() {
  // The built-in C version of the load-balancing server (paper curve c):
  // identical behaviour, hand-written against the packet structs.
  auto table = std::make_shared<std::map<std::pair<std::uint32_t, std::uint16_t>, int>>();
  auto counter = std::make_shared<int>(0);

  gateway_->set_ip_hook([this, table, counter](Packet& p, asp::net::Interface&) {
    if (!delay_and_forward()) return true;
    // Boxed Packet + two shared_ptrs + this: 56 bytes, inside the EventFn
    // inline capture budget. Gateway queue: shard-local under an executor.
    gateway_->events().schedule_at(gw_busy_until_, [this, table, counter,
                                               box = asp::net::packet_boxes().box(
                                                   p)]() mutable {
      Packet& q = *box;
      if (q.tcp && q.ip.dst == kVirtual && q.tcp->dport == 80) {
        auto key = std::make_pair(q.ip.src.bits(), q.tcp->sport);
        auto it = table->find(key);
        int con;
        if (it != table->end()) {
          con = it->second;
        } else {
          con = (*counter) % 2;
          (*table)[key] = con;
        }
        if (q.tcp->has(asp::net::tcpflag::kSyn) && !q.tcp->has(asp::net::tcpflag::kAck)) {
          ++(*counter);
        }
        q.ip.dst = con == 0 ? kServer0 : kServer1;
      } else if (q.tcp && q.tcp->sport == 80 &&
                 (q.ip.src == kServer0 || q.ip.src == kServer1)) {
        q.ip.src = kVirtual;
      }
      if (q.ip.ttl > 1) {
        --q.ip.ttl;
        q.l2_next_hop = Ipv4Addr{};
        gateway_->forward(std::move(box));
      }
    });
    return true;
  });
}

void HttpExperiment::kill_server(int idx) {
  server_nodes_.at(static_cast<std::size_t>(idx))->tcp().stop_listening(80);
}

void HttpExperiment::mark_server(int idx, bool down) {
  // Administrative datagram from the first client machine to the gateway.
  asp::net::Node& admin = *client_nodes_.at(0);
  asp::net::Packet p = asp::net::Packet::make_udp(
      admin.addr(), ip("10.0.2.254"), 9908, 9909,
      asp::net::bytes_of(std::string(down ? "DOWN " : "UP ") + std::to_string(idx)));
  p.id = admin.next_packet_id();
  admin.send_ip(std::move(p));
}

HttpRunResult HttpExperiment::run(double duration_sec) {
  for (auto& pool : pools_) pool->start();
  net_.run_until(seconds(duration_sec));

  HttpRunResult r;
  r.duration_sec = duration_sec;
  for (auto& pool : pools_) {
    r.completed += pool->completed();
    r.failed += pool->failed();
    r.mean_latency_ms += pool->mean_latency_ms();
  }
  r.mean_latency_ms /= static_cast<double>(pools_.size());
  r.requests_per_sec = static_cast<double>(r.completed) / duration_sec;
  return r;
}

}  // namespace asp::apps
