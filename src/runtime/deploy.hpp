// ASP deployment over the network itself (paper §5: "protocol management
// functionalities, such as ASP deployment").
//
// A management station pushes PLAN-P source to a node's deployment daemon
// over TCP. The daemon runs the ordinary download pipeline — including the
// verification gate — and reports the outcome. Unverifiable protocols need
// the authenticated flag (paper §2.1's provision for privileged users).
//
// Wire format, version 1 (client -> server):
//   "DEPLOY/1 <engine> <auth> <source-bytes> <fnv64-hex>\n" followed by the
// source text, where <engine> is "interp" or "jit" and <source-bytes> is an
// unsigned decimal. The trailing header field is an FNV-1a 64 checksum of the
// body: our simulated TCP carries no checksum of its own, so an in-flight
// bit flip would otherwise hand the verifier a silently different program.
// Reply:
//   "OK <channels> <codegen-us>\n"  or  "ERR <reason>\n".
// A header carrying any other version token draws "ERR bad-version expected
// DEPLOY/1"; an unknown engine token draws "ERR bad-engine <token>"; a
// length or checksum field that is not wholly a number, or a header line
// longer than kDeployMaxHeaderBytes, draws "ERR malformed header"; a length
// above kDeployMaxSourceBytes draws "ERR too-large"; a body that fails its
// checksum draws "ERR bad-checksum" — old/new/corrupted stations fail loudly
// instead of misparsing, and no peer can make the daemon buffer without
// bound.
//
// Reliability: the network between station and daemon is exactly the
// degraded network ASPs exist for, so the client side retries. Each attempt
// is bounded by `DeployOptions::attempt_timeout`; failed attempts back off
// exponentially up to `max_attempts`, and the callback fires *exactly once*
// — success or terminal error, never zero times, even against a silent or
// partitioned daemon. Only "reject:"-prefixed errors are terminal: the
// daemon sends that prefix for verdicts computed over a checksum-verified
// body (verification/compile failures), which are provably about the
// program. Every other failure — timeouts, dead connections, and all
// protocol-level errors — could be a single corrupted frame's doing and is
// retried. The daemon dedups retried installs by content hash (a retry
// whose predecessor actually installed just replays the cached OK), so
// convergence never double-installs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "net/tcp.hpp"
#include "runtime/engine.hpp"

namespace asp::runtime {

inline constexpr std::uint16_t kDeployPort = 9199;

/// The wire header tag this build speaks (protocol version 1).
inline constexpr const char* kDeployHeaderTag = "DEPLOY/1";

/// Largest <source-bytes> a daemon accepts. The largest checked-in ASP is
/// under 3 KB; a larger claim is refused before any body is buffered.
inline constexpr std::size_t kDeployMaxSourceBytes = std::size_t{1} << 20;

/// Longest header line, without its '\n', a daemon accepts. A well-formed
/// header ("DEPLOY/1 interp 1 <20 digits> <16 hex digits>") is under 64.
inline constexpr std::size_t kDeployMaxHeaderBytes = 256;

/// FNV-1a 64 over the DEPLOY body; carried hex in the header's last field.
std::uint64_t deploy_checksum(std::string_view body);

/// Per-node deployment daemon. Owns nothing but the listener; installs into
/// the node's AspRuntime.
class DeployServer {
 public:
  DeployServer(AspRuntime& runtime, std::uint16_t port = kDeployPort);

  int deployments() const { return deployments_; }
  int rejections() const { return rejections_; }
  /// Retried installs answered from the content-hash cache (no reinstall).
  int dedups() const { return dedups_; }

 private:
  struct Session {
    std::string buffer;
    bool header_seen = false;
    bool done = false;  // reply sent; trailing bytes must not re-enter finish
    planp::EngineKind engine = planp::EngineKind::kJit;
    bool authenticated = false;
    std::size_t expect = 0;
    std::uint64_t checksum = 0;
  };

  void on_data(std::shared_ptr<asp::net::TcpConnection> conn,
               std::shared_ptr<Session> s);
  void finish(std::shared_ptr<asp::net::TcpConnection> conn, const Session& s);
  void reject(std::shared_ptr<asp::net::TcpConnection> conn,
              const std::string& reason);

  AspRuntime& runtime_;
  int deployments_ = 0;
  int rejections_ = 0;
  int dedups_ = 0;
  // Content hash of the currently installed deployment and the OK reply it
  // drew, for idempotent retries.
  std::uint64_t installed_key_ = 0;
  std::string cached_reply_;
};

/// Structured outcome of one deployment attempt, parsed from the wire reply.
struct DeployResult {
  bool ok = false;
  int channels = 0;       // channels the installed protocol declares (on ok)
  double codegen_us = 0;  // daemon-side specialization time (on ok)
  std::string error;      // reason when !ok ("bad-version ...", "verification:
                          // ...", "connection closed", "timeout", ...); empty
                          // on success
  int attempts = 1;       // attempts the client made before this outcome

  /// Parses one reply line ("OK <channels> <codegen-us>" / "ERR <reason>").
  /// Anything unparseable yields ok=false with the raw line as the error.
  static DeployResult from_reply(const std::string& line);
};

/// Knobs for one deployment push (namespace-scope so it can default-construct
/// in Deployer::deploy's default argument; spelled Deployer::Options at call
/// sites).
struct DeployOptions {
  planp::EngineKind engine = planp::EngineKind::kJit;
  /// Authenticated deployments may install gate-rejected protocols.
  bool authenticated = false;
  std::uint16_t port = kDeployPort;

  /// Per-attempt deadline: an attempt that has not produced a reply by then
  /// is aborted and retried (a silent daemon must not hang the station).
  asp::net::SimTime attempt_timeout = asp::net::seconds(2);
  /// Total attempts before the terminal error callback (>= 1).
  int max_attempts = 5;
  /// Delay before the first retry; doubles on each further retry.
  asp::net::SimTime initial_backoff = asp::net::millis(250);
};

/// Management-station side: pushes an ASP to a remote daemon.
class Deployer {
 public:
  explicit Deployer(asp::net::Node& node) : node_(node) {}

  using Options = DeployOptions;
  using Callback = std::function<void(const DeployResult&)>;

  /// Asynchronously deploys `source` to `target`. `cb` fires exactly once:
  /// when the daemon replies with a definitive outcome, or — after timeouts,
  /// dead connections and corrupted exchanges have exhausted the retry
  /// budget — with a terminal error.
  void deploy(asp::net::Ipv4Addr target, const std::string& source, Callback cb,
              Options opts = Options());

 private:
  asp::net::Node& node_;
};

}  // namespace asp::runtime
