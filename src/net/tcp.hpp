// A deliberately small TCP: 3-way handshake, cumulative ACKs, go-back-N
// retransmission with a slow-start/AIMD congestion window, FIN teardown.
//
// This is the substrate for the HTTP load-balancing experiment (paper §3.2):
// what matters there is that connections are established end-to-end through a
// gateway that rewrites addresses, and that servers saturate under load.
//
// Threading (DESIGN.md §6f): a TcpStack and every TcpConnection it owns are
// SHARD-CONFINED to their node's shard — timers go through the node's
// events(), segments leave via the node's interfaces, and peer segments
// arrive as ordinary packet deliveries on this shard's queue. A connection's
// two endpoints may live on different shards; they only ever interact
// through transmitted packets, never by touching each other's state.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"

namespace asp::net {

class TcpStack;

/// One end of a TCP connection.
class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  enum class State {
    kClosed,
    kListen,
    kSynSent,
    kSynRcvd,
    kEstablished,
    kFinWait,    // we sent FIN, waiting for ACK/FIN
    kCloseWait,  // peer sent FIN, we still may send
    kLastAck,
  };

  using DataHandler = std::function<void(const std::vector<std::uint8_t>&)>;
  using EventHandler = std::function<void()>;

  static constexpr std::uint32_t kMss = 1460;
  static constexpr std::uint32_t kMaxWnd = 64 * 1024;

  ~TcpConnection();

  /// Queues application data for reliable delivery.
  void send(std::vector<std::uint8_t> data);
  void send(const std::string& s) { send(std::vector<std::uint8_t>(s.begin(), s.end())); }

  /// Half-closes: FIN after all queued data is acknowledged.
  void close();
  /// Drops all state immediately (no FIN).
  void abort();

  void on_established(EventHandler h) { established_cb_ = std::move(h); }
  void on_data(DataHandler h) { data_cb_ = std::move(h); }
  void on_closed(EventHandler h) { closed_cb_ = std::move(h); }

  State state() const { return state_; }
  Ipv4Addr local_addr() const { return local_; }
  Ipv4Addr remote_addr() const { return remote_; }
  std::uint16_t local_port() const { return lport_; }
  std::uint16_t remote_port() const { return rport_; }

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  friend class TcpStack;

  TcpConnection(TcpStack& stack, Ipv4Addr local, std::uint16_t lport, Ipv4Addr remote,
                std::uint16_t rport);

  void start_connect();
  void start_accept(const Packet& syn);
  void handle(const Packet& p);
  void pump();           // transmit new segments within the window
  void emit(std::uint8_t flags, std::uint32_t seq, std::vector<std::uint8_t> data);
  void arm_timer();
  void on_timeout();
  void finish(bool notify);

  TcpStack& stack_;
  Ipv4Addr local_, remote_;
  std::uint16_t lport_, rport_;
  State state_ = State::kClosed;

  // Send side (go-back-N over a byte stream).
  std::deque<std::uint8_t> send_buf_;  // bytes not yet acked; front == snd_una_
  std::uint32_t snd_una_ = 0;          // first unacked seq
  std::uint32_t snd_nxt_ = 0;          // next seq to send
  std::uint32_t iss_ = 0;
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  bool peer_fin_seen_ = false;

  // Receive side.
  std::uint32_t rcv_nxt_ = 0;

  // Congestion control.
  std::uint32_t cwnd_ = 2 * kMss;
  std::uint32_t ssthresh_ = kMaxWnd;

  // At most one RTO event is armed. finish() bumps timer_gen_, so an armed
  // RTO that outlives the connection's life runs as a no-op.
  std::uint64_t timer_gen_ = 0;
  bool timer_armed_ = false;
  SimTime rto_ = millis(200);
  int consecutive_timeouts_ = 0;
  static constexpr int kMaxRetries = 12;  // then the connection is declared dead

  DataHandler data_cb_;
  EventHandler established_cb_;
  EventHandler closed_cb_;

  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t retransmissions_ = 0;
};

/// Per-node TCP demultiplexer.
class TcpStack {
 public:
  using AcceptHandler = std::function<void(std::shared_ptr<TcpConnection>)>;

  explicit TcpStack(Node& node) : node_(node) {}
  ~TcpStack();

  /// Starts accepting connections on `port`.
  void listen(std::uint16_t port, AcceptHandler on_accept);
  void stop_listening(std::uint16_t port) { listeners_.erase(port); }

  /// Opens a connection to dst:dport. Callbacks fire as the handshake runs.
  std::shared_ptr<TcpConnection> connect(Ipv4Addr dst, std::uint16_t dport);

  /// Demux entry from Node::deliver_local. Returns false if nobody wants it.
  bool on_packet(const Packet& p);

  Node& node() { return node_; }
  std::size_t open_connections() const { return conns_.size(); }

 private:
  friend class TcpConnection;
  using Key = std::tuple<std::uint32_t, std::uint16_t, std::uint32_t, std::uint16_t>;
  static Key key(Ipv4Addr l, std::uint16_t lp, Ipv4Addr r, std::uint16_t rp) {
    return {l.bits(), lp, r.bits(), rp};
  }

  void drop(TcpConnection& c);

  Node& node_;
  std::map<Key, std::shared_ptr<TcpConnection>> conns_;
  std::map<std::uint16_t, AcceptHandler> listeners_;
  std::uint16_t next_ephemeral_ = 32768;
};

}  // namespace asp::net
