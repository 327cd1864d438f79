// Audio broadcasting application (paper §3.1).
//
// The application itself is deliberately "unmodified": a source that
// multicasts CD-quality PCM and a client that plays whatever raw PCM arrives
// on its port. All adaptation lives in the ASPs (asps/audio_*.planp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "net/node.hpp"

namespace asp::apps {

/// Audio format constants. The paper's rates: 16-bit stereo = 176 kb/s,
/// 16-bit mono = 88 kb/s, 8-bit mono = 44 kb/s => sample rate 5512 Hz.
struct AudioFormat {
  static constexpr int kSampleRateHz = 5512;
  static constexpr int kFrameMs = 20;
  static constexpr int kSamplesPerFrame = kSampleRateHz * kFrameMs / 1000;  // 110
  static constexpr int kStereoFrameBytes = kSamplesPerFrame * 2 * 2;        // 440
  static constexpr std::uint16_t kPort = 5004;
};

/// Broadcasts a deterministic 16-bit stereo tone over IP multicast,
/// one frame every 20 ms.
class AudioSource {
 public:
  AudioSource(asp::net::Node& node, asp::net::Ipv4Addr group);

  void start();
  void stop() { running_ = false; }

  std::uint64_t frames_sent() const { return frames_sent_; }

 private:
  void tick();
  std::vector<std::uint8_t> make_frame();

  asp::net::Node& node_;
  asp::net::Ipv4Addr group_;
  asp::net::UdpSocket socket_;
  bool running_ = false;
  std::uint64_t frames_sent_ = 0;
  double phase_ = 0;
};

/// Plays the received stream: a 20 ms playback clock consumes one frame per
/// tick from a small jitter buffer; an empty buffer at a tick opens a silent
/// period (the Figure 7 metric).
class AudioClient {
 public:
  AudioClient(asp::net::Node& node, asp::net::Ipv4Addr group);

  void start();

  std::uint64_t frames_received() const { return frames_received_; }
  std::uint64_t payload_bytes_received() const { return payload_bytes_; }
  /// Number of distinct playback gaps so far.
  int silent_periods() const { return silent_periods_; }
  /// Ticks spent silent (gap length accumulates here).
  int silent_ticks() const { return silent_ticks_; }

  /// Audio bandwidth on the wire (pre-reconstruction), bits/sec, over the
  /// trailing half second. This is the Figure 6 series.
  double wire_rate_bps() { return wire_meter_.rate_bps(node_.events().now()); }

  /// Most recent quality tag seen on the wire (0/1/2), -1 before any.
  int last_level() const { return last_level_; }

  /// Number of quality-level changes observed on the wire.
  int level_switches() const { return level_switches_; }

 private:
  void on_frame(const asp::net::Packet& p);
  void playback_tick();

  asp::net::Node& node_;
  asp::net::UdpSocket socket_;
  asp::net::BandwidthMeter wire_meter_{asp::net::kNsPerSec / 2};

  int buffered_frames_ = 0;
  static constexpr int kMaxBuffer = 4;
  bool started_ = false;
  bool in_gap_ = false;
  std::uint64_t frames_received_ = 0;
  std::uint64_t payload_bytes_ = 0;
  int silent_periods_ = 0;
  int silent_ticks_ = 0;
  int last_level_ = -1;
  int level_switches_ = 0;
};

/// Constant-bit-rate UDP load generator (the "load generator" box of
/// Figure 5). Rate is adjustable while running.
class LoadGenerator {
 public:
  LoadGenerator(asp::net::Node& node, asp::net::Ipv4Addr sink,
                std::uint16_t sink_port = 9);

  /// Sets the offered load in bits/sec (0 stops emission).
  void set_rate_bps(double bps);
  void start();

  std::uint64_t packets_sent() const { return packets_sent_; }

 private:
  void tick();

  asp::net::Node& node_;
  asp::net::Ipv4Addr sink_;
  std::uint16_t sink_port_;
  asp::net::UdpSocket socket_;
  double rate_bps_ = 0;
  bool running_ = false;
  std::uint64_t packets_sent_ = 0;
  static constexpr std::size_t kPayload = 1222;  // 1250 B on the wire
};

}  // namespace asp::apps
