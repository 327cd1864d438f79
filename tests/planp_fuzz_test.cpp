// Differential fuzzing: randomly generated well-typed PLAN-P programs must
// behave identically on the interpreter and the JIT, with and without
// superinstruction fusion — the same results, the same PLAN-P exceptions and
// the same emitted packets. This is the mechanized form of the paper's claim
// that the JIT is *derived* from the interpreter and therefore preserves its
// semantics.
//
// Every typed template is reached: the programs are channels over
// `ip*udp*blob` or `ip*tcp*int*blob` that read `int`, `bool`, `char` and
// `host` values, header getters and setters, `blobInt`, `blobLen` and
// `blobPutInt`, pairs and triples, a hash table, user functions over headers,
// `raise` and `try`, and send the unmodified packet as well as rewritten
// ones. They run on net::Packets, so the JIT's plan-driven in-place reads
// and the interpreter's decode both see the same bytes.
//
// The same corpus also runs with mem pool poisoning on (ASP_MEM_POISON
// semantics): recycled buffers/tuple slots/frames are scribbled with
// sentinels between packets, so an engine holding a stale reference into
// recycled pool memory, or reading a frame slot its run did not write,
// diverges loudly instead of silently reading stale bytes.
#include <gtest/gtest.h>

#include <random>

#include "mem/pool.hpp"
#include "net/network.hpp"
#include "planp/interp.hpp"
#include "planp/jit.hpp"
#include "planp/parser.hpp"

namespace asp::planp {
namespace {

/// The two packet shapes a generated channel reads.
enum class Shape { kUdp, kTcp };

/// Generates random well-typed channels. Every integer a program computes
/// stays far below 2^62, so no engine can overflow.
class ExprGen {
 public:
  ExprGen(std::uint32_t seed, Shape shape) : rng_(seed), shape_(shape) {}

  std::string program() {
    const bool tcp = shape_ == Shape::kTcp;
    std::string pr = "(" + int_expr(2) + ", " + host_expr(2) + ")";
    std::string tr = "(" + int_expr(2) + ", " + bool_expr(2) + ", " + char_expr(2) + ")";
    tuples_ = true;  // pr and tr are bound from here on
    std::string sends = send(3);
    for (int i = rng_() % 3; i > 0; --i) sends += "; " + send(3);
    return std::string(
               "fun pick(h : ip, x : int) : host = if x > 0 then ipSrc(h) else ipDst(h)\n"
               "fun bump(t : (int, int) hash_table, k : int) : int =\n"
               "  (tableSet(t, k, tableGetDefault(t, k, 0) + 1);\n"
               "   tableGetDefault(t, k, 0))\n") +
           "channel network(ps : int, ss : (int, int) hash_table, p : " +
           (tcp ? "ip*tcp*int*blob" : "ip*udp*blob") +
           ")\ninitstate mkTable(8) is\n"
           "  let val iph : ip = #1 p\n"
           "      val th : " + (tcp ? "tcp" : "udp") + " = #2 p\n" +
           (tcp ? "      val n : int = #3 p\n      val b : blob = #4 p\n"
                : "      val b : blob = #3 p\n") +
           "      val pr : int*host = " + pr + "\n"
           "      val tr : int*bool*char = " + tr + "\n"
           "  in (" + sends + "; (" + int_expr(4) + ", ss)) end\n";
  }

 private:
  std::string int_expr(int depth) {
    if (depth <= 0) return int_leaf();
    switch (rng_() % 17) {
      case 0: return int_leaf();
      case 1: return "(" + int_expr(depth - 1) + " + " + int_expr(depth - 1) + ")";
      case 2: return "(" + int_expr(depth - 1) + " - " + int_expr(depth - 1) + ")";
      case 3: return "(" + int_expr(depth - 1) + " * " + small() + ")";
      case 4:
        // Division can raise DivByZero; keep it under a try half the time so
        // both raising and non-raising paths are exercised.
        if (rng_() % 2 == 0) {
          return "(try " + int_expr(depth - 1) + " / " + int_expr(depth - 1) +
                 " with " + small() + ")";
        }
        return "(" + int_expr(depth - 1) + " % 7 + 1)";
      case 5:
        return "(if " + bool_expr(depth - 1) + " then " + int_expr(depth - 1) +
               " else " + int_expr(depth - 1) + ")";
      case 6: {
        std::string v = fresh();
        return "(let val " + v + " : int = " + int_expr(depth - 1) + " in " + v +
               " + " + v + " end)";
      }
      case 7: return "min(" + int_expr(depth - 1) + ", " + int_expr(depth - 1) + ")";
      case 8: return "max(abs(" + int_expr(depth - 1) + "), " + small() + ")";
      case 9:
        return "(try (if " + bool_expr(depth - 1) + " then raise \"F\" else " +
               int_expr(depth - 1) + ") with " + small() + ")";
      case 10:
        // Uncaught: the run ends with the exception, after its sends.
        return "(if " + bool_expr(depth - 1) + " then raise \"U\" else " +
               int_expr(depth - 1) + ")";
      case 11:
        return "(blobInt(blobPutInt(" + blob_expr(depth - 1) + ", " + offset() + ", " +
               int_expr(depth - 1) + "), " + offset() + ") % 1000)";
      case 12: return "tableGetDefault(ss, " + int_expr(depth - 1) + ", " + small() + ")";
      case 13: return "(try tableGet(ss, " + int_expr(depth - 1) + ") with " + small() + ")";
      case 14:
        return "(tableSet(ss, " + int_expr(depth - 1) + ", " + int_expr(depth - 1) + "); " +
               small() + ")";
      case 15: return "bump(ss, " + int_expr(depth - 1) + " % 4)";
      default: return "charPos(" + char_expr(depth - 1) + ")";
    }
  }

  std::string int_leaf() {
    const bool tcp = shape_ == Shape::kTcp;
    switch (rng_() % 14) {
      case 0: return "ps";
      case 1: return small();
      case 2: return "(ps % 5)";
      case 3: return "blobLen(b)";
      case 4: return "(blobInt(b, " + offset() + ") % 1000)";
      case 5: return tcp ? "tcpSrc(th)" : "udpSrc(th)";
      case 6: return tcp ? "tcpDst(th)" : "udpDst(th)";
      case 7: return tcp ? "(tcpSeq(th) % 1000)" : "udpDst(th)";
      case 8: return tcp ? "n" : "blobLen(b)";
      case 9: return "ipTtl(iph)";
      case 10: return "(ipTos(iph) + ipProto(iph))";
      case 11: return tuples_ ? "#1 pr" : "ps";
      case 12: return tuples_ ? "#1 tr" : small();
      default: return "(hostToInt(ipSrc(iph)) % 1000)";
    }
  }

  std::string bool_expr(int depth) {
    if (depth <= 0) {
      switch (rng_() % 4) {
        case 0: return "true";
        case 1: return "(ps > 0)";
        case 2: return tuples_ ? "#2 tr" : "false";
        default: return shape_ == Shape::kTcp ? "tcpSyn(th)" : "isMulticast(ipDst(iph))";
      }
    }
    switch (rng_() % 11) {
      case 0: return "(" + int_expr(depth - 1) + " < " + int_expr(depth - 1) + ")";
      case 1: return "(" + int_expr(depth - 1) + " = " + int_expr(depth - 1) + ")";
      case 2: return "(" + bool_expr(depth - 1) + " and " + bool_expr(depth - 1) + ")";
      case 3: return "(" + bool_expr(depth - 1) + " or " + bool_expr(depth - 1) + ")";
      case 4: return "not " + bool_expr(depth - 1);
      case 5: return "(" + int_expr(depth - 1) + " >= " + small() + ")";
      case 6: return "(" + host_expr(depth - 1) + " = " + host_expr(depth - 1) + ")";
      case 7: return "(" + char_expr(depth - 1) + " < " + char_expr(depth - 1) + ")";
      case 8: return "isMulticast(" + host_expr(depth - 1) + ")";
      case 9:
        if (!tuples_) return "true";
        return "(pr = (" + int_expr(depth - 1) + ", " + host_expr(depth - 1) + "))";
      default: return "(blobLen(" + blob_expr(depth - 1) + ") > " + small() + ")";
    }
  }

  std::string host_expr(int depth) {
    if (depth <= 0) {
      switch (rng_() % 5) {
        case 0: return "ipSrc(iph)";
        case 1: return "ipDst(iph)";
        case 2: return tuples_ ? "#2 pr" : "ipSrc(iph)";
        case 3: return "224.0.0.1";
        default: return "10.0.0.7";
      }
    }
    switch (rng_() % 4) {
      case 0:
        return "(if " + bool_expr(depth - 1) + " then " + host_expr(depth - 1) + " else " +
               host_expr(depth - 1) + ")";
      case 1: return "ipDst(" + ip_expr(depth - 1) + ")";
      case 2: return "pick(" + ip_expr(depth - 1) + ", " + int_expr(depth - 1) + ")";
      default: return host_expr(0);
    }
  }

  std::string char_expr(int depth) {
    if (depth <= 0) {
      switch (rng_() % 3) {
        case 0: return "'a'";
        case 1: return "'z'";
        default: return tuples_ ? "#3 tr" : "'m'";
      }
    }
    switch (rng_() % 3) {
      case 0: return "(try chr(" + int_expr(depth - 1) + ") with 'q')";
      case 1:
        return "(if " + bool_expr(depth - 1) + " then " + char_expr(depth - 1) + " else " +
               char_expr(depth - 1) + ")";
      default: return char_expr(0);
    }
  }

  std::string ip_expr(int depth) {
    if (depth <= 0) return "iph";
    switch (rng_() % 4) {
      case 0: return "ipDestSet(" + ip_expr(depth - 1) + ", " + host_expr(depth - 1) + ")";
      case 1: return "ipSrcSet(" + ip_expr(depth - 1) + ", " + host_expr(depth - 1) + ")";
      case 2: return "ipTosSet(" + ip_expr(depth - 1) + ", " + int_expr(depth - 1) + ")";
      default: return "iph";
    }
  }

  std::string transport_expr(int depth) {
    const std::string kind = shape_ == Shape::kTcp ? "tcp" : "udp";
    if (depth <= 0) return "th";
    switch (rng_() % 3) {
      case 0:
        return kind + "SrcSet(" + transport_expr(depth - 1) + ", " + int_expr(depth - 1) + ")";
      case 1:
        return kind + "DstSet(" + transport_expr(depth - 1) + ", " + int_expr(depth - 1) + ")";
      default: return "th";
    }
  }

  std::string blob_expr(int depth) {
    if (depth <= 0) return rng_() % 4 == 0 ? "blobFromString(\"hi\")" : "b";
    switch (rng_() % 3) {
      case 0:
        return "blobPutInt(" + blob_expr(depth - 1) + ", " + offset() + ", " +
               int_expr(depth - 1) + ")";
      case 1:
        return "(if " + bool_expr(depth - 1) + " then " + blob_expr(depth - 1) + " else " +
               blob_expr(depth - 1) + ")";
      default: return blob_expr(0);
    }
  }

  /// A packet value: the channel's own packet or one rebuilt from fields.
  std::string packet(int depth) {
    if (rng_() % 3 == 0) return "p";
    return "(" + ip_expr(depth) + ", " + transport_expr(depth) + ", " +
           (shape_ == Shape::kTcp ? int_expr(depth) + ", " : "") + blob_expr(depth) + ")";
  }

  std::string send(int depth) {
    switch (rng_() % 5) {
      case 0: return "OnRemote(network, p)";
      case 1: return "OnRemote(network, " + packet(depth) + ")";
      case 2: return "OnNeighbor(network, " + packet(depth) + ")";
      case 3: return "deliver(" + packet(depth) + ")";
      default:
        return "(if " + bool_expr(depth - 1) + " then OnRemote(network, p) else deliver(" +
               packet(depth - 1) + "))";
    }
  }

  std::string small() { return std::to_string(static_cast<int>(rng_() % 9) - 4); }
  std::string offset() {
    static const char* const kOffsets[] = {"0", "3", "8", "100", "-1"};
    return kOffsets[rng_() % 5];
  }
  std::string fresh() { return "v" + std::to_string(var_counter_++); }

  std::mt19937 rng_;
  Shape shape_;
  bool tuples_ = false;
  int var_counter_ = 0;
};

/// The packets every generated channel of `shape` runs on, in order.
std::vector<net::Packet> packets(Shape shape) {
  std::vector<net::Packet> out;
  const net::Ipv4Addr dsts[] = {net::ip("10.0.0.2"), net::ip("224.0.0.1"),
                                net::ip("10.0.0.7")};
  for (int i = 0; i < 6; ++i) {
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(4 + i * 7));
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::uint8_t>((i * 5 + j) % 11);
    }
    const net::Ipv4Addr src(10, 0, 0, static_cast<std::uint8_t>(1 + i));
    const net::TcpHeader tcp{static_cast<std::uint16_t>(1000 + i), 80,
                             static_cast<std::uint32_t>(7 * i), 9,
                             i % 2 == 0 ? net::tcpflag::kSyn : net::tcpflag::kAck, 512};
    net::Packet p =
        shape == Shape::kTcp
            ? net::Packet::make_tcp(src, dsts[i % 3], tcp, std::move(payload))
            : net::Packet::make_udp(src, dsts[i % 3], static_cast<std::uint16_t>(5000 + i),
                                    9000, std::move(payload));
    p.ip.ttl = static_cast<std::uint8_t>(60 + i);
    p.ip.tos = static_cast<std::uint8_t>(i);
    out.push_back(std::move(p));
  }
  return out;
}

std::string describe(const net::Packet& p) {
  std::string s = p.ip.src.str() + ">" + p.ip.dst.str() +
                  " proto=" + std::to_string(static_cast<int>(p.ip.proto)) +
                  " ttl=" + std::to_string(p.ip.ttl) + " tos=" + std::to_string(p.ip.tos) +
                  " tag=" + std::to_string(p.channel_tag) + " id=" + std::to_string(p.id);
  if (p.tcp) {
    s += " tcp " + std::to_string(p.tcp->sport) + ">" + std::to_string(p.tcp->dport) +
         " seq=" + std::to_string(p.tcp->seq) + " ack=" + std::to_string(p.tcp->ack) +
         " flags=" + std::to_string(p.tcp->flags) + " wnd=" + std::to_string(p.tcp->wnd);
  }
  if (p.udp) s += " udp " + std::to_string(p.udp->sport) + ">" + std::to_string(p.udp->dport);
  s += " payload=";
  for (std::uint8_t b : p.payload) s += std::to_string(b) + ",";
  return s;
}

/// What one packet's run did: its result or exception, and what it emitted.
struct Outcome {
  bool raised = false;
  std::string exception;
  std::int64_t value = 0;
  std::vector<std::string> emitted;

  bool operator==(const Outcome& o) const {
    return raised == o.raised && exception == o.exception &&
           (raised || value == o.value) && emitted == o.emitted;
  }
  std::string str() const {
    std::string s = raised ? "raise " + exception : std::to_string(value);
    for (const std::string& e : emitted) s += "\n    " + e;
    return s;
  }
};

struct Run {
  CheckedProgram* checked;
  NullEnv env;
  std::unique_ptr<Engine> engine;
  Value ps = Value::of_int(0);
  Value ss;

  Outcome step(const net::Packet& pkt) {
    Outcome out;
    try {
      States result = engine->run_channel(0, ps, ss, pkt);
      ps = result.ps;
      ss = result.ss;
      out.value = ps.as_int();
    } catch (const PlanPException& e) {
      out.raised = true;
      out.exception = e.name;
    }
    for (const auto& [tag, p] : env.sends) {
      out.emitted.push_back(net::ChannelTags::name_of(tag) + " " + describe(p));
    }
    for (const net::Packet& p : env.delivered) out.emitted.push_back("deliver " + describe(p));
    env.sends.clear();
    env.delivered.clear();
    return out;
  }
};

void check_engines_agree(std::uint32_t seed) {
  const Shape shape = seed % 2 == 0 ? Shape::kUdp : Shape::kTcp;
  ExprGen gen(seed, shape);
  const std::string src = gen.program();

  CheckedProgram checked;
  try {
    checked = typecheck(parse(src));
  } catch (const PlanPError& e) {
    FAIL() << "generator produced an ill-formed program: " << e.what() << "\n" << src;
  }

  const char* const names[] = {"interp", "jit", "jit_nofuse"};
  Run runs[3];
  runs[0].engine = std::make_unique<Interp>(checked, runs[0].env);
  runs[1].engine = std::make_unique<JitEngine>(checked, runs[1].env);
  runs[2].engine = std::make_unique<JitEngine>(checked, runs[2].env, /*fuse=*/false);
  for (Run& r : runs) r.ss = r.engine->init_state(0);

  const std::vector<net::Packet> pkts = packets(shape);
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    const Outcome ref = runs[0].step(pkts[i]);
    for (int e = 1; e < 3; ++e) {
      const Outcome got = runs[e].step(pkts[i]);
      EXPECT_EQ(ref, got) << "packet " << i << ": interp=" << ref.str() << "\n  "
                          << names[e] << "=" << got.str() << "\n" << src;
    }
  }
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FuzzSeeds, EnginesAgreeOnRandomPrograms) { check_engines_agree(GetParam()); }

INSTANTIATE_TEST_SUITE_P(RandomPrograms, FuzzSeeds, ::testing::Range(0u, 40u));

// The same corpus under poison-on-free: every recycled buffer, tuple slot and
// execution frame is scribbled with sentinels between channel runs, so a
// use-after-recycle in any engine shows up as a divergence (or a loud
// sentinel value) rather than a silent right answer from stale memory.
class PoisonedFuzzSeeds : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void SetUp() override {
    prev_ = mem::poison_enabled();
    mem::set_poison(true);
  }
  void TearDown() override { mem::set_poison(prev_); }

 private:
  bool prev_ = false;
};

TEST_P(PoisonedFuzzSeeds, EnginesAgreeWithPoolPoisoning) {
  check_engines_agree(GetParam());
}

INSTANTIATE_TEST_SUITE_P(PoisonedPrograms, PoisonedFuzzSeeds,
                         ::testing::Range(0u, 20u));

}  // namespace
}  // namespace asp::planp
