#include "net/trace.hpp"

#include <cstdio>

namespace asp::net {

std::string describe(const Packet& p) {
  std::string s = p.ip.src.str();
  if (p.tcp) s += ":" + std::to_string(p.tcp->sport);
  if (p.udp) s += ":" + std::to_string(p.udp->sport);
  s += " > " + p.ip.dst.str();
  if (p.tcp) {
    s += ":" + std::to_string(p.tcp->dport) + " tcp ";
    if (p.tcp->has(tcpflag::kSyn)) s += 'S';
    if (p.tcp->has(tcpflag::kFin)) s += 'F';
    if (p.tcp->has(tcpflag::kRst)) s += 'R';
    if (p.tcp->has(tcpflag::kPsh)) s += 'P';
    if (p.tcp->has(tcpflag::kAck)) s += '.';
    s += " seq=" + std::to_string(p.tcp->seq) + " ack=" + std::to_string(p.tcp->ack);
  } else if (p.udp) {
    s += ":" + std::to_string(p.udp->dport) + " udp";
  } else {
    s += " raw";
  }
  s += " len=" + std::to_string(p.payload.size());
  s += " ttl=" + std::to_string(p.ip.ttl);
  if (p.channel_tag != 0) s += " chan=" + ChannelTags::name_of(p.channel_tag);
  return s;
}

std::string PacketTracer::dump() const {
  std::string out;
  char head[64];
  for (const TraceEvent& e : events_) {
    std::snprintf(head, sizeof head, "[%10.6f] %-12s #%llu ", to_seconds(e.time),
                  e.node.c_str(), static_cast<unsigned long long>(e.packet_id));
    out += head;
    out += e.summary;
    out += '\n';
  }
  return out;
}

}  // namespace asp::net
