// Match-action classification for the packet path (DESIGN.md §6c).
//
// The P4 shape, applied to ASP dispatch: at install time every channel is
// compiled into an Action — engine channel index, flat decode plan,
// pre-resolved metric handle — and the channel set into a classification
// table keyed by (interned channel tag, transport shape). The per-packet
// path is then: classify -> check the packet against each candidate's plan
// -> hand the packet itself to the engine; no string hashing, no type-tree
// walk, no registry lookup. The JIT reads the fields its body projects in
// place; only the interpreter decodes the packet into a tuple.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "planp/interp.hpp"
#include "planp/typecheck.hpp"
#include "planp/netapi.hpp"

namespace asp::runtime {

/// Everything the per-packet path needs for one channel, resolved once at
/// install time.
struct MatchAction {
  std::uint16_t channel_idx = 0;          // Engine::run_channel's index
  const planp::ChannelDef* def = nullptr; // for error reporting (name)
  planp::DecodePlan plan;
  obs::Counter* handled = nullptr;        // pre-resolved per-channel counter
};

/// The install-time-compiled dispatch table: interned tag -> transport shape
/// -> action list (overload order preserved). Tags are dense small ints, so
/// classification is a bounds check and two array indexings.
class MatchActionTable {
 public:
  struct Rule {
    // Action indices per transport shape: [0] raw/header-only, [1] tcp,
    // [2] udp. A channel naming a transport is filed under that slot alone;
    // header-only channels accept any shape.
    std::array<std::vector<std::uint16_t>, 3> by_proto;
  };

  /// Compiles the table for `prog`'s channels. `counters` is the aligned
  /// per-channel dispatch counter list (may be shorter; missing -> null).
  static MatchActionTable build(const planp::CheckedProgram& prog,
                                const std::vector<obs::Counter*>& counters);

  /// Transport shape slot of `p` (raw 0 / tcp 1 / udp 2).
  static std::size_t proto_slot(const asp::net::Packet& p) {
    if (p.tcp && p.ip.proto == asp::net::IpProto::kTcp) return 1;
    if (p.udp && p.ip.proto == asp::net::IpProto::kUdp) return 2;
    return 0;
  }

  /// The rule for an interned channel tag; tag 0 (untagged traffic) resolves
  /// to the distinguished `network` channels. Null when no channel can match.
  const Rule* classify(std::uint32_t tag) const {
    if (tag == 0) {
      return untagged_ < 0 ? nullptr : &rules_[static_cast<std::size_t>(untagged_)];
    }
    if (tag >= rules_.size()) return nullptr;
    const Rule& r = rules_[tag];
    return r.by_proto[0].empty() && r.by_proto[1].empty() && r.by_proto[2].empty()
               ? nullptr
               : &r;
  }

  const MatchAction& action(std::uint16_t idx) const { return actions_[idx]; }
  std::size_t size() const { return actions_.size(); }

 private:
  std::vector<MatchAction> actions_;  // one per channel, index == channel idx
  std::vector<Rule> rules_;           // dense, indexed by interned tag
  std::int64_t untagged_ = -1;        // index of the `network` rule, if any
};

}  // namespace asp::runtime
