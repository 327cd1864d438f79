#include "scenario/topology.hpp"

#include <stdexcept>
#include <string>

#include "planp/cache.hpp"

namespace asp::scenario {

namespace {

using net::Interface;
using net::Ipv4Addr;
using net::Network;
using net::Node;
using net::PointToPointLink;

/// Sequential /30 allocator out of 172.16.0.0/12 for router-router links.
/// Purely arithmetic: link i always gets the same pair of addresses.
class FabricAddrs {
 public:
  struct Pair {
    Ipv4Addr a, b;
  };
  Pair next() {
    if (idx_ >= (1u << 18)) {  // 2^18 links x 4 addrs = the whole /12
      throw std::invalid_argument("topology exceeds the 172.16/12 fabric plan");
    }
    std::uint32_t base = (Ipv4Addr{172, 16, 0, 0}.bits()) | (idx_ << 2);
    ++idx_;
    return {Ipv4Addr{base + 1}, Ipv4Addr{base + 2}};
  }

 private:
  std::uint32_t idx_ = 0;
};

/// xorshift64: the same deterministic stream the media use for impairments.
std::uint64_t next_rng(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

// ---------------------------------------------------------------------------
// fat_tree
// ---------------------------------------------------------------------------

BuiltTopology build_fat_tree(Network& net, const TopologyParams& p) {
  const int k = p.k, half = k / 2, hpe = p.hosts_per_edge;
  require(k >= 2 && k % 2 == 0, "fat_tree: k must be even and >= 2");
  require(k <= 254, "fat_tree: k must fit the 10.pod.x.x addressing octet");
  require(hpe >= 1 && hpe <= 63, "fat_tree: hosts_per_edge must be in [1, 63]");

  BuiltTopology out;
  FabricAddrs fabric;

  // Switches first (creation order is the canonical order): per pod the k/2
  // edge then k/2 agg switches, then the (k/2)^2 cores.
  std::vector<std::vector<Node*>> edge(static_cast<std::size_t>(k));
  std::vector<std::vector<Node*>> agg(static_cast<std::size_t>(k));
  std::vector<Node*> core;
  for (int pod = 0; pod < k; ++pod) {
    for (int e = 0; e < half; ++e) {
      Node& n = net.add_router("e" + std::to_string(pod) + "_" + std::to_string(e));
      n.reserve_ifaces(static_cast<std::size_t>(hpe + half));
      edge[static_cast<std::size_t>(pod)].push_back(&n);
      out.routers.push_back(&n);
      out.edge_routers.push_back(&n);
    }
    for (int a = 0; a < half; ++a) {
      Node& n = net.add_router("a" + std::to_string(pod) + "_" + std::to_string(a));
      n.reserve_ifaces(static_cast<std::size_t>(k));
      agg[static_cast<std::size_t>(pod)].push_back(&n);
      out.routers.push_back(&n);
    }
  }
  for (int c = 0; c < half * half; ++c) {
    Node& n = net.add_router("c" + std::to_string(c));
    n.reserve_ifaces(static_cast<std::size_t>(k));
    core.push_back(&n);
    out.routers.push_back(&n);
    out.top_routers.push_back(&n);
  }

  // Hosts + access links: host h under edge (pod, e) lives on the /30
  // 10.pod.e.(4h)/30 — host .(4h+1), switch .(4h+2).
  for (int pod = 0; pod < k; ++pod) {
    for (int e = 0; e < half; ++e) {
      Node* sw = edge[static_cast<std::size_t>(pod)][static_cast<std::size_t>(e)];
      for (int h = 0; h < hpe; ++h) {
        Node& host = net.add_node("h" + std::to_string(pod) + "_" +
                                  std::to_string(e) + "_" + std::to_string(h));
        auto pb = static_cast<std::uint8_t>(pod);
        auto eb = static_cast<std::uint8_t>(e);
        auto lo = static_cast<std::uint8_t>(4 * h);
        net::PointToPointLink& l =
            net.link(host, Ipv4Addr{10, pb, eb, static_cast<std::uint8_t>(lo + 1)},
                     *sw, Ipv4Addr{10, pb, eb, static_cast<std::uint8_t>(lo + 2)},
                     p.host_bps, p.access_delay, 64 * 1024, 30);
        host.routes().add_default(0);
        out.hosts.push_back(&host);
        out.access_media.push_back(&l);
      }
    }
  }

  // Edge<->agg full bipartite per pod; agg<->core: agg a owns the core
  // column [a*(k/2), (a+1)*(k/2)).
  for (int pod = 0; pod < k; ++pod) {
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        auto [ea, eb2] = fabric.next();
        out.fabric_media.push_back(&net.link(
            *edge[static_cast<std::size_t>(pod)][static_cast<std::size_t>(e)], ea,
            *agg[static_cast<std::size_t>(pod)][static_cast<std::size_t>(a)], eb2,
            p.agg_bps, p.fabric_delay, 64 * 1024, 30));
      }
    }
    for (int a = 0; a < half; ++a) {
      for (int c = 0; c < half; ++c) {
        auto [aa, ab] = fabric.next();
        out.fabric_media.push_back(&net.link(
            *agg[static_cast<std::size_t>(pod)][static_cast<std::size_t>(a)], aa,
            *core[static_cast<std::size_t>(a * half + c)], ab, p.core_bps,
            p.fabric_delay, 64 * 1024, 30));
      }
    }
  }

  // Routing. Interface layout (by construction order above):
  //   edge: [0..hpe) host links, [hpe..hpe+half) agg links (agg index order)
  //   agg:  [0..half) edge links, [half..k) core links (column order)
  //   core: iface pod (one link per pod, pod order)
  for (int pod = 0; pod < k; ++pod) {
    auto pb = static_cast<std::uint8_t>(pod);
    for (int e = 0; e < half; ++e) {
      // Deterministic single-path "ECMP": edge e uplinks by default through
      // agg (e mod half), spreading edges across the aggregation tier.
      edge[static_cast<std::size_t>(pod)][static_cast<std::size_t>(e)]
          ->routes()
          .add_default(hpe + (e % half));
    }
    for (int a = 0; a < half; ++a) {
      Node* ag = agg[static_cast<std::size_t>(pod)][static_cast<std::size_t>(a)];
      for (int e = 0; e < half; ++e) {
        ag->routes().add(Ipv4Addr{10, pb, static_cast<std::uint8_t>(e), 0}, 24, e);
      }
      ag->routes().add_default(half + (pod % half));  // pod-spread core choice
    }
  }
  for (int c = 0; c < half * half; ++c) {
    Node* co = core[static_cast<std::size_t>(c)];
    for (int pod = 0; pod < k; ++pod) {
      co->routes().add(Ipv4Addr{10, static_cast<std::uint8_t>(pod), 0, 0}, 16, pod);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// as_hierarchy
// ---------------------------------------------------------------------------

BuiltTopology build_as_hierarchy(Network& net, const TopologyParams& p) {
  const int t1n = p.t1_count, t2n = p.t2_per_t1, stn = p.stubs_per_t2;
  const int hps = p.hosts_per_stub;
  require(t1n >= 1 && t2n >= 1 && stn >= 1, "as_hierarchy: counts must be >= 1");
  require(hps >= 1 && hps <= 63, "as_hierarchy: hosts_per_stub must be in [1, 63]");
  const int stubs_total = t1n * t2n * stn;
  require(stubs_total <= 256 * 256, "as_hierarchy: too many stub ASes for 10/8");

  BuiltTopology out;
  FabricAddrs fabric;
  std::uint64_t rng = p.seed != 0 ? p.seed : 1;

  std::vector<Node*> t1(static_cast<std::size_t>(t1n));
  for (int i = 0; i < t1n; ++i) {
    Node& n = net.add_router("t1_" + std::to_string(i));
    t1[static_cast<std::size_t>(i)] = &n;
    out.routers.push_back(&n);
    out.top_routers.push_back(&n);
  }
  // Backbone: full mesh.
  for (int i = 0; i < t1n; ++i) {
    for (int j = i + 1; j < t1n; ++j) {
      auto [a, b] = fabric.next();
      out.fabric_media.push_back(&net.link(*t1[static_cast<std::size_t>(i)], a,
                                           *t1[static_cast<std::size_t>(j)], b,
                                           p.core_bps, p.fabric_delay, 64 * 1024, 30));
    }
  }
  // t1 iface layout: [0..t1n-1 minus self) mesh links in peer order, then
  // child t2 links, then multihome links in arrival order.
  auto t1_mesh_iface = [t1n](int self, int peer) {
    return peer < self ? peer : peer - 1;  // mesh links skip self
  };

  struct T2 {
    Node* node;
    int parent;     // t1 index
    int second;     // multihomed t1 index (may equal parent when t1n == 1)
    int parent_iface_on_t1;
    int second_iface_on_t1;
  };
  std::vector<T2> t2s;
  std::vector<int> t1_next_iface(static_cast<std::size_t>(t1n), t1n - 1);
  for (int i = 0; i < t1n; ++i) {
    for (int j = 0; j < t2n; ++j) {
      Node& n = net.add_router("t2_" + std::to_string(i) + "_" + std::to_string(j));
      out.routers.push_back(&n);
      int second = t1n == 1 ? 0
                            : static_cast<int>(next_rng(rng) %
                                               static_cast<std::uint64_t>(t1n - 1));
      if (t1n > 1 && second >= i) ++second;  // any t1 but the parent
      auto [pa, pb] = fabric.next();
      out.fabric_media.push_back(&net.link(n, pa, *t1[static_cast<std::size_t>(i)],
                                           pb, p.agg_bps, p.fabric_delay,
                                           64 * 1024, 30));
      int pif = t1_next_iface[static_cast<std::size_t>(i)]++;
      int sif = -1;
      if (t1n > 1) {
        auto [sa, sb] = fabric.next();
        out.fabric_media.push_back(
            &net.link(n, sa, *t1[static_cast<std::size_t>(second)], sb, p.agg_bps,
                      p.fabric_delay, 64 * 1024, 30));
        sif = t1_next_iface[static_cast<std::size_t>(second)]++;
      }
      t2s.push_back(T2{&n, i, second, pif, sif});
    }
  }

  // Stubs: stub s (global, grouped by t2) owns 10.(s/256).(s%256).0/24. The
  // stub router takes .254; host h sits on the /30 at .(4h)/30 inside it.
  struct Stub {
    Node* router;
    int t2;  // owning transit index in t2s
  };
  std::vector<Stub> stubs;
  for (std::size_t ti = 0; ti < t2s.size(); ++ti) {
    for (int s = 0; s < stn; ++s) {
      int g = static_cast<int>(stubs.size());
      auto oc1 = static_cast<std::uint8_t>(g / 256);
      auto oc2 = static_cast<std::uint8_t>(g % 256);
      Node& r = net.add_router("s" + std::to_string(g));
      r.reserve_ifaces(static_cast<std::size_t>(hps + 1));
      out.routers.push_back(&r);
      out.edge_routers.push_back(&r);
      for (int h = 0; h < hps; ++h) {
        Node& host = net.add_node("s" + std::to_string(g) + "_h" + std::to_string(h));
        auto lo = static_cast<std::uint8_t>(4 * h);
        out.access_media.push_back(&net.link(
            host, Ipv4Addr{10, oc1, oc2, static_cast<std::uint8_t>(lo + 1)}, r,
            Ipv4Addr{10, oc1, oc2, static_cast<std::uint8_t>(lo + 2)}, p.host_bps,
            p.access_delay, 64 * 1024, 30));
        host.routes().add_default(0);
        out.hosts.push_back(&host);
      }
      auto [ra, rb] = fabric.next();
      out.fabric_media.push_back(&net.link(r, ra, *t2s[ti].node, rb, p.edge_bps,
                                           p.fabric_delay, 64 * 1024, 30));
      r.routes().add_default(hps);  // everything off-AS goes to the transit
      stubs.push_back(Stub{&r, static_cast<int>(ti)});
    }
  }

  // t2 routing: child stub /24s via the stub links (ifaces: 0 = parent t1
  // link, 1 = multihome link if any, then stub links in order), default to
  // the parent t1.
  const int t2_stub_base = t1n > 1 ? 2 : 1;
  for (std::size_t ti = 0; ti < t2s.size(); ++ti) {
    Node* n = t2s[ti].node;
    for (int s = 0; s < stn; ++s) {
      int g = static_cast<int>(ti) * stn + s;
      n->routes().add(Ipv4Addr{10, static_cast<std::uint8_t>(g / 256),
                               static_cast<std::uint8_t>(g % 256), 0},
                      24, t2_stub_base + s);
    }
    n->routes().add_default(0);
  }

  // t1 routing: per-stub /24s — via a child or multihomed t2 when one homes
  // the stub here, else across the mesh to the stub's parent t1.
  for (int i = 0; i < t1n; ++i) {
    Node* n = t1[static_cast<std::size_t>(i)];
    for (std::size_t g = 0; g < stubs.size(); ++g) {
      const T2& owner = t2s[static_cast<std::size_t>(stubs[g].t2)];
      int via;
      if (owner.parent == i) {
        via = owner.parent_iface_on_t1;
      } else if (t1n > 1 && owner.second == i) {
        via = owner.second_iface_on_t1;
      } else {
        via = t1_mesh_iface(i, owner.parent);
      }
      n->routes().add(Ipv4Addr{10, static_cast<std::uint8_t>(g / 256),
                               static_cast<std::uint8_t>(g % 256), 0},
                      24, via);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// metro_access
// ---------------------------------------------------------------------------

BuiltTopology build_metro_access(Network& net, const TopologyParams& p) {
  const int mn = p.metros, an = p.aggs_per_metro, ln = p.lans_per_agg;
  const int hpl = p.hosts_per_lan;
  require(mn >= 1 && an >= 1 && ln >= 1 && hpl >= 1,
          "metro_access: counts must be >= 1");
  require(hpl <= 200, "metro_access: hosts_per_lan must be <= 200");
  const int lan_total = mn * an * ln;
  require(lan_total <= 256 * 256, "metro_access: too many LANs for 10/8");

  BuiltTopology out;
  FabricAddrs fabric;

  Node& core = net.add_router("core");
  core.reserve_ifaces(static_cast<std::size_t>(mn));
  out.routers.push_back(&core);
  out.top_routers.push_back(&core);

  int lan_idx = 0;
  for (int m = 0; m < mn; ++m) {
    Node& metro = net.add_router("m" + std::to_string(m));
    metro.reserve_ifaces(static_cast<std::size_t>(an + 1));
    out.routers.push_back(&metro);
    auto [ca, cb] = fabric.next();
    out.fabric_media.push_back(
        &net.link(core, ca, metro, cb, p.agg_bps, p.fabric_delay, 64 * 1024, 30));
    // metro iface 0 is the core uplink (link() added core's end first, but
    // interfaces are per-node: metro's first iface is this uplink).
    for (int a = 0; a < an; ++a) {
      Node& ag = net.add_router("m" + std::to_string(m) + "_a" + std::to_string(a));
      ag.reserve_ifaces(static_cast<std::size_t>(ln + 1));
      out.routers.push_back(&ag);
      out.edge_routers.push_back(&ag);
      auto [ma, mb] = fabric.next();
      out.fabric_media.push_back(
          &net.link(metro, ma, ag, mb, p.edge_bps, p.fabric_delay, 64 * 1024, 30));
      for (int l = 0; l < ln; ++l) {
        auto oc1 = static_cast<std::uint8_t>(lan_idx / 256);
        auto oc2 = static_cast<std::uint8_t>(lan_idx % 256);
        net::EthernetSegment& seg = net.segment(
            "lan" + std::to_string(lan_idx), p.host_bps, net::micros(5));
        out.access_media.push_back(&seg);
        const Ipv4Addr gw{10, oc1, oc2, 254};
        net.attach(ag, seg, gw);  // /24 connected route
        for (int h = 0; h < hpl; ++h) {
          Node& host = net.add_node("l" + std::to_string(lan_idx) + "_h" +
                                    std::to_string(h));
          net.attach(host, seg, Ipv4Addr{10, oc1, oc2,
                                         static_cast<std::uint8_t>(h + 1)});
          host.routes().add_default(0, gw);  // L2 next hop: the agg's station
          out.hosts.push_back(&host);
        }
        ++lan_idx;
      }
      ag.routes().add_default(0);  // iface 0 = metro uplink
    }
  }

  // Metro m: its own LAN /24s via the agg links (iface a+1), default to core.
  // Core: every LAN /24 via the owning metro (iface m).
  lan_idx = 0;
  for (int m = 0; m < mn; ++m) {
    Node* metro = out.routers[static_cast<std::size_t>(1 + m * (1 + an))];
    for (int a = 0; a < an; ++a) {
      for (int l = 0; l < ln; ++l) {
        Ipv4Addr lan{10, static_cast<std::uint8_t>(lan_idx / 256),
                     static_cast<std::uint8_t>(lan_idx % 256), 0};
        metro->routes().add(lan, 24, 1 + a);
        core.routes().add(lan, 24, m);
        ++lan_idx;
      }
    }
    metro->routes().add_default(0);
  }
  return out;
}

}  // namespace

BuiltTopology build_topology(Network& net, const TopologyParams& p) {
  require(net.nodes().empty(), "build_topology: network must be empty");
  if (p.kind == "fat_tree") return build_fat_tree(net, p);
  if (p.kind == "as_hierarchy") return build_as_hierarchy(net, p);
  if (p.kind == "metro_access") return build_metro_access(net, p);
  throw std::invalid_argument("unknown topology kind: " + p.kind);
}

std::uint64_t topology_digest(const net::Network& net) {
  std::uint64_t h = planp::CacheStore::kFnvBasis;
  auto mix = [&h](std::uint64_t v) {  // little-endian bytes, on any host
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (i * 8));
    h = planp::CacheStore::fnv1a(b, sizeof b, h);
  };
  auto mix_str = [&h](const std::string& s) {
    h = planp::CacheStore::fnv1a(s.data(), s.size(), h);
  };
  mix(net.nodes().size());
  for (const auto& n : net.nodes()) {
    mix_str(n->name());
    mix(n->router() ? 1 : 0);
    mix(n->iface_count());
    for (std::size_t i = 0; i < n->iface_count(); ++i) {
      mix(n->iface(static_cast<int>(i)).addr().bits());
    }
    for (const net::Route& r : n->routes().routes()) {
      mix(r.prefix.bits());
      mix(static_cast<std::uint64_t>(r.prefix_len()));
      mix(static_cast<std::uint64_t>(r.iface));
      mix(r.next_hop.bits());
    }
  }
  mix(net.media().size());
  for (const auto& m : net.media()) {
    mix_str(m->name());
    const double bwd = m->bandwidth_bps();
    std::uint64_t bw;
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    __builtin_memcpy(&bw, &bwd, sizeof bw);
    mix(bw);
    mix(m->delay());
  }
  return h;
}

}  // namespace asp::scenario
