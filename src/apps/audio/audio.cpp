#include "apps/audio/audio.hpp"

#include <cmath>

namespace asp::apps {

using asp::net::kNsPerMs;
using asp::net::Packet;
using asp::net::SimTime;

AudioSource::AudioSource(asp::net::Node& node, asp::net::Ipv4Addr group)
    : node_(node), group_(group), socket_(node, AudioFormat::kPort, nullptr) {}

void AudioSource::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void AudioSource::tick() {
  if (!running_) return;
  socket_.send_to(group_, AudioFormat::kPort, make_frame());
  ++frames_sent_;
  node_.events().schedule_in(AudioFormat::kFrameMs * kNsPerMs, [this] { tick(); });
}

std::vector<std::uint8_t> AudioSource::make_frame() {
  // A 440 Hz tone, 16-bit little-endian stereo.
  std::vector<std::uint8_t> pcm;
  pcm.reserve(AudioFormat::kStereoFrameBytes);
  constexpr double kToneHz = 440.0;
  for (int i = 0; i < AudioFormat::kSamplesPerFrame; ++i) {
    phase_ += 2.0 * 3.14159265358979 * kToneHz / AudioFormat::kSampleRateHz;
    auto s = static_cast<std::int16_t>(20000.0 * std::sin(phase_));
    for (int ch = 0; ch < 2; ++ch) {
      pcm.push_back(static_cast<std::uint8_t>(s & 0xFF));
      pcm.push_back(static_cast<std::uint8_t>((s >> 8) & 0xFF));
    }
  }
  return pcm;
}

AudioClient::AudioClient(asp::net::Node& node, asp::net::Ipv4Addr group)
    : node_(node),
      socket_(node, AudioFormat::kPort, [this](const Packet& p) { on_frame(p); }) {
  node_.join_group(group);
  // Wire-rate tap: counts audio bytes as they arrive, i.e. the degraded
  // format, before the client ASP reconstructs them.
  node_.add_rx_tap([this, audio_tag = asp::net::ChannelTags::intern("audio")](
                       const Packet& p, const asp::net::Interface&) {
    bool is_audio = p.udp && p.udp->dport == AudioFormat::kPort;
    if (is_audio) {
      wire_meter_.record(node_.events().now(), p.wire_size());
      int level = last_level_;
      if (p.channel_tag == audio_tag && !p.payload.empty()) {
        level = p.payload[0] - '0';
      } else if (p.channel_tag == 0) {
        level = 0;  // untagged: original quality
      }
      if (last_level_ >= 0 && level != last_level_) ++level_switches_;
      last_level_ = level;
    }
  });
}

void AudioClient::start() {
  if (started_) return;
  started_ = true;
  playback_tick();
}

void AudioClient::on_frame(const asp::net::Packet& p) {
  ++frames_received_;
  payload_bytes_ += p.payload.size();
  if (buffered_frames_ < kMaxBuffer) ++buffered_frames_;
}

void AudioClient::playback_tick() {
  if (buffered_frames_ > 0) {
    --buffered_frames_;
    in_gap_ = false;
  } else if (frames_received_ > 0) {  // playback has begun at least once
    if (!in_gap_) {
      ++silent_periods_;
      in_gap_ = true;
    }
    ++silent_ticks_;
  }
  node_.events().schedule_in(AudioFormat::kFrameMs * kNsPerMs,
                             [this] { playback_tick(); });
}

LoadGenerator::LoadGenerator(asp::net::Node& node, asp::net::Ipv4Addr sink,
                             std::uint16_t sink_port)
    : node_(node), sink_(sink), sink_port_(sink_port), socket_(node, 9998, nullptr) {}

void LoadGenerator::set_rate_bps(double bps) {
  bool was_idle = rate_bps_ <= 0;
  rate_bps_ = bps;
  if (was_idle && running_ && bps > 0) tick();
}

void LoadGenerator::start() {
  if (running_) return;
  running_ = true;
  if (rate_bps_ > 0) tick();
}

void LoadGenerator::tick() {
  if (!running_ || rate_bps_ <= 0) return;
  socket_.send_to(sink_, sink_port_, std::vector<std::uint8_t>(kPayload));
  ++packets_sent_;
  double wire_bits = (kPayload + 28) * 8.0;
  SimTime gap = static_cast<SimTime>(wire_bits / rate_bps_ * 1e9);
  node_.events().schedule_in(gap, [this] { tick(); });
}

}  // namespace asp::apps
