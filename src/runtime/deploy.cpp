#include "runtime/deploy.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>

#include "net/node.hpp"
#include "planp/cache.hpp"

namespace asp::runtime {

using asp::net::TcpConnection;

std::uint64_t deploy_checksum(std::string_view body) {
  return planp::CacheStore::fnv1a(body.data(), body.size());
}

namespace {

std::string checksum_hex(std::uint64_t sum) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(sum));
  return buf;
}

/// Hash identifying one install request end-to-end: same body, engine and
/// auth flag => same installed state, so a retry may be answered from cache.
std::uint64_t install_key(std::string_view body, planp::EngineKind engine,
                          bool authenticated) {
  std::uint64_t h = deploy_checksum(body);
  h ^= (static_cast<std::uint64_t>(engine) + 1) * 0x9E3779B97F4A7C15ull;
  h ^= authenticated ? 0x5851F42D4C957F2Dull : 0;
  return h;
}

/// Parses all of `field` as an unsigned number. `istream >> std::size_t`
/// would accept "-1" as 2^64-1 without setting failbit.
template <typename T>
bool parse_unsigned(std::string_view field, T& out, int base) {
  auto [ptr, ec] = std::from_chars(field.data(), field.data() + field.size(), out, base);
  return ec == std::errc() && ptr == field.data() + field.size();
}

}  // namespace

DeployServer::DeployServer(AspRuntime& runtime, std::uint16_t port)
    : runtime_(runtime) {
  runtime_.node().tcp().listen(port, [this](std::shared_ptr<TcpConnection> conn) {
    auto session = std::make_shared<Session>();
    // The connection owns this callback, so capturing it strongly here would
    // be a reference cycle that leaks every session; the TCP stack keeps the
    // connection alive while it is open.
    std::weak_ptr<TcpConnection> weak = conn;
    conn->on_data([this, weak, session](const std::vector<std::uint8_t>& d) {
      auto c = weak.lock();
      if (!c) return;
      session->buffer.append(d.begin(), d.end());
      on_data(std::move(c), session);
    });
  });
}

void DeployServer::reject(std::shared_ptr<TcpConnection> conn,
                          const std::string& reason) {
  ++rejections_;
  conn->send("ERR " + reason + "\n");
  conn->close();
}

void DeployServer::on_data(std::shared_ptr<TcpConnection> conn,
                           std::shared_ptr<Session> s) {
  if (s->done) return;  // trailing bytes after the reply: ignore them
  if (!s->header_seen) {
    auto eol = s->buffer.find('\n');
    if (eol == std::string::npos ? s->buffer.size() > kDeployMaxHeaderBytes
                                 : eol > kDeployMaxHeaderBytes) {
      // No well-formed header is this long; without the bound a peer that
      // never sends '\n' would have every later byte buffered.
      s->done = true;
      reject(conn, "malformed header");
      return;
    }
    if (eol == std::string::npos) return;
    std::istringstream in(s->buffer.substr(0, eol));
    std::string cmd, engine, len_field, sum;
    int auth = 0;
    in >> cmd >> engine >> auth >> len_field >> sum;
    s->buffer.erase(0, eol + 1);
    if (cmd.rfind("DEPLOY", 0) != 0) {
      s->done = true;
      reject(conn, "malformed header");
      return;
    }
    if (cmd != kDeployHeaderTag) {
      // A DEPLOY header speaking another (or no) version: refuse loudly
      // rather than guessing at its framing.
      s->done = true;
      reject(conn, std::string("bad-version expected ") + kDeployHeaderTag);
      return;
    }
    std::size_t len = 0;
    if (in.fail() || !parse_unsigned(len_field, len, 10)) {
      s->done = true;
      reject(conn, "malformed header");
      return;
    }
    if (len > kDeployMaxSourceBytes) {
      s->done = true;
      reject(conn, "too-large");
      return;
    }
    if (engine == "interp") {
      s->engine = planp::EngineKind::kInterp;
    } else if (engine == "jit") {
      s->engine = planp::EngineKind::kJit;
    } else {
      // An unknown token ("jitt", "") used to fall through silently to kJit;
      // reject it so a typo'd station learns immediately.
      s->done = true;
      reject(conn, "bad-engine " + engine);
      return;
    }
    std::uint64_t checksum = 0;
    if (!parse_unsigned(sum, checksum, 16)) {
      s->done = true;
      reject(conn, "malformed header");
      return;
    }
    s->authenticated = auth != 0;
    s->expect = len;
    s->checksum = checksum;
    s->header_seen = true;
  }
  if (s->buffer.size() >= s->expect) {
    s->done = true;  // set before finish: install callbacks must not re-enter
    finish(conn, *s);
  }
}

void DeployServer::finish(std::shared_ptr<TcpConnection> conn, const Session& s) {
  const std::string body = s.buffer.substr(0, s.expect);
  if (deploy_checksum(body) != s.checksum) {
    // The body that arrived is not the body the station framed: corrupted in
    // flight. Reject rather than handing the verifier a different program.
    reject(conn, "bad-checksum");
    return;
  }
  const std::uint64_t key = install_key(body, s.engine, s.authenticated);
  if (runtime_.installed() && key == installed_key_ && !cached_reply_.empty()) {
    // Idempotent retry: the previous attempt installed this exact program but
    // its OK reply was lost. Replay the reply; do not install twice.
    ++dedups_;
    conn->send(cached_reply_);
    conn->close();
    return;
  }
  planp::Protocol::Options opts;
  opts.engine = s.engine;
  opts.require_verified = !s.authenticated;
  try {
    const planp::Protocol& proto = runtime_.install(body, opts);
    ++deployments_;
    double codegen_us = 0;
    if (const planp::CodegenStats* cs = proto.codegen_stats()) {
      codegen_us = cs->generation_ms * 1000.0;
    }
    std::string reply = "OK " + std::to_string(proto.checked().channels.size()) +
                        " " + std::to_string(codegen_us) + "\n";
    installed_key_ = key;
    cached_reply_ = reply;
    conn->send(reply);
    conn->close();
  } catch (const planp::VerificationError& e) {
    // "reject:" marks a verdict computed over a checksum-verified body — the
    // one class of error a client should NOT retry (see transient_failure).
    reject(conn, std::string("reject: verification: ") + e.what());
  } catch (const planp::PlanPError& e) {
    reject(conn, std::string("reject: ") + e.what());
  }
}

DeployResult DeployResult::from_reply(const std::string& line) {
  DeployResult r;
  if (line.rfind("OK", 0) == 0) {
    std::istringstream in(line);
    std::string tag;
    in >> tag >> r.channels >> r.codegen_us;
    if (in.fail()) {
      r.channels = 0;
      r.codegen_us = 0;
      r.error = "unparseable reply: " + line;
      return r;
    }
    r.ok = true;
    return r;
  }
  if (line.rfind("ERR ", 0) == 0) {
    r.error = line.substr(4);
    return r;
  }
  r.error = line.empty() ? "empty reply" : "unparseable reply: " + line;
  return r;
}

// --- client side --------------------------------------------------------------

namespace {

/// One in-flight deployment push: shared by every attempt's callbacks and
/// timers. `settled` makes the user callback fire exactly once.
struct DeployJob {
  asp::net::Node* node = nullptr;
  asp::net::Ipv4Addr target;
  std::string message;
  DeployOptions opts;
  Deployer::Callback cb;
  bool settled = false;
  int attempts = 0;
  std::shared_ptr<TcpConnection> conn;  // current attempt's connection
};

/// Failures worth retrying. Only a "reject:"-prefixed verdict is terminal:
/// the daemon computed it over a checksum-verified body, so it is provably
/// about the program itself. Everything else — timeouts, dead connections,
/// and every protocol-level error ("bad-checksum", "bad-version",
/// "bad-engine", "malformed header", "too-large", garbled replies) — can be
/// fabricated by a single corrupted frame in either direction (the header
/// and the reply carry no checksum), so the client retries rather than
/// trust damaged goods.
bool transient_failure(const DeployResult& r) {
  if (r.ok) return false;
  return r.error.rfind("reject: ", 0) != 0;
}

void settle(const std::shared_ptr<DeployJob>& job, DeployResult r) {
  if (job->settled) return;
  job->settled = true;
  job->conn.reset();
  r.attempts = job->attempts;
  if (job->cb) job->cb(r);
}

void start_attempt(const std::shared_ptr<DeployJob>& job);

/// Ends a failed attempt: schedules the next one after exponential backoff,
/// or settles with a terminal error once the budget is spent.
void retry_or_fail(const std::shared_ptr<DeployJob>& job, const std::string& err) {
  if (job->settled) return;
  job->conn.reset();
  if (job->attempts >= job->opts.max_attempts) {
    DeployResult r;
    r.error = err + " (gave up after " + std::to_string(job->attempts) +
              (job->attempts == 1 ? " attempt)" : " attempts)");
    settle(job, r);
    return;
  }
  asp::net::SimTime backoff = job->opts.initial_backoff
                              << (job->attempts > 0 ? job->attempts - 1 : 0);
  job->node->events().schedule_in(backoff, [job] {
    if (!job->settled) start_attempt(job);
  });
}

void start_attempt(const std::shared_ptr<DeployJob>& job) {
  ++job->attempts;
  auto conn = job->node->tcp().connect(job->target, job->opts.port);
  job->conn = conn;
  // `live` scopes the callbacks and the timeout to THIS attempt: once the
  // attempt is decided (reply, death, or deadline), stragglers are inert.
  auto live = std::make_shared<bool>(true);
  auto reply = std::make_shared<std::string>();
  std::weak_ptr<TcpConnection> weak = conn;  // no conn->conn capture cycles

  conn->on_established([job, weak, live] {
    if (job->settled || !*live) return;
    if (auto c = weak.lock()) c->send(job->message);
  });
  conn->on_data([job, weak, live, reply](const std::vector<std::uint8_t>& d) {
    if (job->settled || !*live) return;
    reply->append(d.begin(), d.end());
    auto eol = reply->find('\n');
    if (eol == std::string::npos) return;
    *live = false;
    DeployResult r = DeployResult::from_reply(reply->substr(0, eol));
    if (transient_failure(r)) {
      // A corrupted exchange (the reply itself may be damaged goods): tear
      // the connection down and try again.
      retry_or_fail(job, r.error);
      if (auto c = weak.lock()) c->abort();
      return;
    }
    settle(job, std::move(r));
    if (auto c = weak.lock()) c->close();
  });
  conn->on_closed([job, live] {
    if (job->settled || !*live) return;
    *live = false;
    retry_or_fail(job, "connection closed");
  });
  // Attempt deadline: a dropped SYN the TCP layer is still grinding on, or a
  // daemon that accepted and went silent, must not hang the callback forever.
  job->node->events().schedule_in(job->opts.attempt_timeout, [job, weak, live] {
    if (job->settled || !*live) return;
    *live = false;
    retry_or_fail(job, "timeout");
    if (auto c = weak.lock()) c->abort();
  });
}

}  // namespace

void Deployer::deploy(asp::net::Ipv4Addr target, const std::string& source,
                      Callback cb, Options opts) {
  const char* engine = opts.engine == planp::EngineKind::kInterp ? "interp" : "jit";
  auto job = std::make_shared<DeployJob>();
  job->node = &node_;
  job->target = target;
  job->opts = opts;
  if (job->opts.max_attempts < 1) job->opts.max_attempts = 1;
  job->cb = std::move(cb);
  job->message = std::string(kDeployHeaderTag) + " " + engine + " " +
                 (opts.authenticated ? "1" : "0") + " " +
                 std::to_string(source.size()) + " " +
                 checksum_hex(deploy_checksum(source)) + "\n" + source;
  start_attempt(job);
}

}  // namespace asp::runtime
