#include "runtime/match_action.hpp"

#include <algorithm>

namespace asp::runtime {

MatchActionTable MatchActionTable::build(const planp::CheckedProgram& prog,
                                         const std::vector<obs::Counter*>& counters) {
  MatchActionTable t;
  const auto& channels = prog.channels;
  t.actions_.reserve(channels.size());

  std::uint32_t max_tag = 0;
  std::vector<std::uint32_t> tags;
  tags.reserve(channels.size());
  for (const auto& c : channels) {
    std::uint32_t tag = asp::net::ChannelTags::intern(c->name);
    tags.push_back(tag);
    max_tag = std::max(max_tag, tag);
  }
  t.rules_.resize(static_cast<std::size_t>(max_tag) + 1);

  for (std::size_t i = 0; i < channels.size(); ++i) {
    const planp::ChannelDef& c = *channels[i];
    MatchAction a;
    a.channel_idx = static_cast<std::uint16_t>(i);
    a.def = &c;
    a.plan = planp::compile_decode_plan(c.packet_type);
    a.handled = i < counters.size() ? counters[i] : nullptr;
    t.actions_.push_back(std::move(a));

    // File the channel under its transport slots (overload order preserved:
    // channels are visited in declaration order and appended).
    Rule& r = t.rules_[tags[i]];
    const std::uint16_t idx = static_cast<std::uint16_t>(i);
    switch (t.actions_.back().plan.transport) {
      case planp::DecodePlan::Transport::kTcp: r.by_proto[1].push_back(idx); break;
      case planp::DecodePlan::Transport::kUdp: r.by_proto[2].push_back(idx); break;
      case planp::DecodePlan::Transport::kAny:
        for (auto& slot : r.by_proto) slot.push_back(idx);
        break;
    }
  }

  const std::uint32_t network_tag = asp::net::ChannelTags::intern("network");
  if (network_tag < t.rules_.size()) {
    const Rule& r = t.rules_[network_tag];
    if (!r.by_proto[0].empty() || !r.by_proto[1].empty() || !r.by_proto[2].empty()) {
      t.untagged_ = static_cast<std::int64_t>(network_tag);
    }
  }
  return t;
}

}  // namespace asp::runtime
