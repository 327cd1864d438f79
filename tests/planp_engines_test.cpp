// Cross-engine semantics: the interpreter is the reference implementation;
// the run-time-specialized JIT, with and without superinstruction fusion,
// must agree with it on results, state updates, emitted packets and raised
// exceptions. This mirrors the paper's claim that the JIT is *derived from*
// the interpreter and preserves its semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>

#include "mem/shard.hpp"
#include "net/network.hpp"
#include "planp/disasm.hpp"
#include "planp/interp.hpp"
#include "planp/jit.hpp"
#include "planp/parser.hpp"
#include "planp/program.hpp"

namespace asp::planp {
namespace {

enum class Which { kInterp, kJitNoFuse, kJit };

std::string which_name(Which w) {
  switch (w) {
    case Which::kInterp: return "interp";
    case Which::kJit: return "jit";
    case Which::kJitNoFuse: return "jit_nofuse";
  }
  return "?";
}

struct Loaded {
  CheckedProgram checked;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<NullEnv> env;
};

Loaded load(const std::string& src, Which w) {
  Loaded l;
  l.env = std::make_unique<NullEnv>();
  l.checked = typecheck(parse(src));
  switch (w) {
    case Which::kInterp:
      l.engine = std::make_unique<Interp>(l.checked, *l.env);
      break;
    case Which::kJit:
    case Which::kJitNoFuse:
      l.engine = std::make_unique<JitEngine>(l.checked, *l.env,
                                             /*fuse=*/w == Which::kJit);
      break;
  }
  return l;
}

class EngineSuite : public ::testing::TestWithParam<Which> {};

asp::net::Packet mk_tcp_packet(const char* src, const char* dst, std::uint16_t sport,
                               std::uint16_t dport,
                               std::vector<std::uint8_t> body = {1, 2, 3}) {
  return asp::net::Packet::make_tcp(asp::net::ip(src), asp::net::ip(dst),
                                    {sport, dport, 0, 0, 0, 0}, std::move(body));
}

asp::net::Packet mk_udp_packet(std::uint8_t i) {
  return asp::net::Packet::make_udp(asp::net::ip("10.0.0.1"), asp::net::ip("10.0.0.2"), 9, 7,
                                    std::vector<std::uint8_t>(16, i));
}

/// The packet a packet value encodes to (ip.proto follows its transport).
asp::net::Packet wire(const Value& v) { return encode_packet(v, 0); }

TEST_P(EngineSuite, CountsPacketsInState) {
  Loaded l = load(
      "channel c(ps : int, ss : int, p : ip*tcp*blob) initstate 0 is\n"
      "  (deliver(p); (ps + 1, ss + blobLen(#3 p)))",
      GetParam());
  Value ps = Value::of_int(0);
  Value ss = l.engine->init_state(0);
  EXPECT_EQ(ss.as_int(), 0);
  for (int i = 0; i < 5; ++i) {
    States out = l.engine->run_channel(0, ps, ss, mk_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2));
    ps = out.ps;
    ss = out.ss;
  }
  EXPECT_EQ(ps.as_int(), 5);
  EXPECT_EQ(ss.as_int(), 15);
  EXPECT_EQ(l.env->delivered.size(), 5u);
}

TEST_P(EngineSuite, Figure2GatewayBalancesAlternately) {
  // Complete version of the paper's Figure 2 load balancer.
  Loaded l = load(R"(
fun getSetS(src : host, sport : int,
            ss : (host*int, int) hash_table, ps : int) : int =
  try tableGet(ss, (src, sport))
  with (tableSet(ss, (src, sport), ps % 2); ps % 2)

channel network(ps : int, ss : (host*int, int) hash_table, p : ip*tcp*blob)
initstate mkTable(256) is
  let val iph : ip = #1 p
      val tcph : tcp = #2 p
      val body : blob = #3 p
  in
    if tcpDst(tcph) = 80 then
      let val con : int = getSetS(ipSrc(iph), tcpSrc(tcph), ss, ps) in
        if con = 0 then
          (OnRemote(network, (ipDestSet(iph, 131.254.60.81), tcph, body));
           (ps + 1, ss))
        else
          (OnRemote(network, (ipDestSet(iph, 131.254.60.109), tcph, body));
           (ps + 1, ss))
      end
    else
      (OnRemote(network, p); (ps, ss))
  end
)",
                  GetParam());
  Value ps = Value::of_int(0);
  Value ss = l.engine->init_state(0);

  auto run = [&](const char* src, std::uint16_t sport, std::uint16_t dport) {
    States out =
        l.engine->run_channel(0, ps, ss, mk_tcp_packet(src, "9.9.9.9", sport, dport));
    ps = out.ps;
    ss = out.ss;
    return l.env->sends.back().second.ip.dst.str();
  };

  // Two distinct connections alternate between the physical servers.
  EXPECT_EQ(run("1.1.1.1", 1000, 80), "131.254.60.81");
  EXPECT_EQ(run("2.2.2.2", 2000, 80), "131.254.60.109");
  // Stickiness: the same connection keeps its server.
  EXPECT_EQ(run("1.1.1.1", 1000, 80), "131.254.60.81");
  EXPECT_EQ(run("2.2.2.2", 2000, 80), "131.254.60.109");
  // Non-HTTP traffic passes through unmodified.
  EXPECT_EQ(run("3.3.3.3", 3000, 22), "9.9.9.9");
  EXPECT_EQ(ps.as_int(), 4);  // one increment per HTTP packet
}

TEST_P(EngineSuite, OverloadedChannelsRunIndependently) {
  Loaded l = load(R"(
val CmdA : int = 65
channel network(ps : unit, ss : int, p : ip*tcp*char*int) initstate 0 is
  if charPos(#3 p) = CmdA then (deliver(p); (ps, ss + #4 p)) else (drop(); (ps, ss))
channel network(ps : unit, ss : int, p : ip*tcp*char*bool) initstate 0 is
  (deliver(p); (ps, if #4 p then ss + 1 else ss))
)",
                  GetParam());
  asp::net::Packet p_int = wire(Value::of_tuple(
      {Value::of_ip({}), Value::of_tcp({}), Value::of_char('A'), Value::of_int(10)}));
  States out =
      l.engine->run_channel(0, Value::unit(), l.engine->init_state(0), p_int);
  EXPECT_EQ(out.ss.as_int(), 10);

  asp::net::Packet p_bool = wire(Value::of_tuple(
      {Value::of_ip({}), Value::of_tcp({}), Value::of_char('B'), Value::of_bool(true)}));
  States out2 =
      l.engine->run_channel(1, Value::unit(), l.engine->init_state(1), p_bool);
  EXPECT_EQ(out2.ss.as_int(), 1);
}

TEST_P(EngineSuite, ExceptionInChannelPropagates) {
  Loaded l = load(
      "channel c(ps : unit, ss : unit, p : ip*blob) is\n"
      "  (if blobLen(#2 p) > 100 then raise \"TooBig\" else deliver(p); (ps, ss))",
      GetParam());
  asp::net::Packet small = asp::net::Packet::make_raw({}, {}, std::vector<std::uint8_t>(10));
  asp::net::Packet big = asp::net::Packet::make_raw({}, {}, std::vector<std::uint8_t>(200));
  EXPECT_NO_THROW(l.engine->run_channel(0, Value::unit(), Value::unit(), small));
  EXPECT_THROW(l.engine->run_channel(0, Value::unit(), Value::unit(), big),
               PlanPException);
}

TEST_P(EngineSuite, TryWithStateRestoredAfterHandler) {
  Loaded l = load(R"(
channel c(ps : int, ss : (int, int) hash_table, p : ip*blob)
initstate mkTable(4) is
  let val v : int = try tableGet(ss, blobLen(#2 p)) with -1
  in (deliver(p); (tableSet(ss, blobLen(#2 p), ps); (v, ss))) end
)",
                  GetParam());
  Value ss = l.engine->init_state(0);
  asp::net::Packet pkt = asp::net::Packet::make_raw({}, {}, {1, 2});
  // First packet: miss -> -1; records 0. Second: hit -> 0.
  States o1 = l.engine->run_channel(0, Value::of_int(0), ss, pkt);
  EXPECT_EQ(o1.ps.as_int(), -1);
  States o2 = l.engine->run_channel(0, Value::of_int(7), o1.ss, pkt);
  EXPECT_EQ(o2.ps.as_int(), 0);
}

TEST_P(EngineSuite, GlobalsSharedAcrossChannels) {
  Loaded l = load(R"(
val threshold : int = 50
channel c(ps : int, ss : unit, p : ip*blob) is
  (deliver(p); (if blobLen(#2 p) > threshold then ps + 1 else ps, ss))
)",
                  GetParam());
  asp::net::Packet big = asp::net::Packet::make_raw({}, {}, std::vector<std::uint8_t>(60));
  States out = l.engine->run_channel(0, Value::of_int(0), Value::unit(), big);
  EXPECT_EQ(out.ps.as_int(), 1);
}

TEST_P(EngineSuite, DeepExpressionNesting) {
  // Exercises stack discipline across branches, tries and calls.
  Loaded l = load(R"(
fun f(a : int, b : int) : int = if a > b then a - b else b - a
fun g(a : int) : int = f(a * 3, a + 7) + (try a / (a - a) with 11)
channel c(ps : int, ss : unit, p : ip*blob) is
  (deliver(p); (g(ps) + f(1, 2) + (if ps % 2 = 0 then 100 else 200), ss))
)",
                  GetParam());
  asp::net::Packet pkt;
  // ps=4: f(12,11)=1, try 4/0 -> 11 => g=12; f(1,2)=1; even -> +100 => 113.
  States out = l.engine->run_channel(0, Value::of_int(4), Value::unit(), pkt);
  EXPECT_EQ(out.ps.as_int(), 113);
  // ps=5: f(15,12)=3 + 11 = 14; +1; odd -> +200 => 215.
  States out2 = l.engine->run_channel(0, Value::of_int(5), Value::unit(), pkt);
  EXPECT_EQ(out2.ps.as_int(), 215);
}

TEST_P(EngineSuite, PrintsMatchReference) {
  Loaded l = load(R"(
channel c(ps : unit, ss : unit, p : ip*tcp*char*int) is
  if charPos(#3 p) = 65 then
    (print("CmdA: "); println(#4 p); (deliver(p); (ps, ss)))
  else (deliver(p); (ps, ss))
)",
                  GetParam());
  asp::net::Packet pkt = wire(Value::of_tuple(
      {Value::of_ip({}), Value::of_tcp({}), Value::of_char('A'), Value::of_int(42)}));
  l.engine->run_channel(0, Value::unit(), Value::unit(), pkt);
  EXPECT_EQ(l.env->output, "CmdA: 42\n");
}

TEST_P(EngineSuite, InitializersBindMoreThanEightNames) {
  // Ten nested lets in a top-level val and in an initstate: the lowering
  // sizes their frames from the names they bind, not from a fixed guess.
  std::string lets = "0";
  for (int i = 9; i >= 0; --i) {
    lets = "let val x" + std::to_string(i) + " : int = " + std::to_string(i + 1) + " in " +
           (i == 9 ? "x9" : "x" + std::to_string(i) + " + (" + lets + ")") + " end";
  }
  Loaded l = load("val total : int = " + lets +
                      "\nchannel c(ps : int, ss : int, p : ip*blob) initstate " + lets +
                      " is (deliver(p); (ps + total, ss))",
                  GetParam());
  const Value ss = l.engine->init_state(0);
  EXPECT_EQ(ss.as_int(), 55);
  States out = l.engine->run_channel(0, Value::of_int(0), ss, asp::net::Packet{});
  EXPECT_EQ(out.ps.as_int(), 55);
}

TEST_P(EngineSuite, MostNegativeIntDividedByMinusOne) {
  // The gate accepts this channel, and the machine's division traps on it:
  // `/` gives the most negative int back and `%` gives 0.
  Loaded l = load(R"(
channel c(ps : int, ss : int, p : ip*blob) initstate 0 is
  let val m : int = 0 - 9223372036854775807 - 1
      val d : int = blobLen(#2 p) - 65
  in (deliver(p); (m / d, m % d)) end
)",
                  GetParam());
  const asp::net::Packet pkt =
      asp::net::Packet::make_raw({}, {}, std::vector<std::uint8_t>(64, 7));
  const States out = l.engine->run_channel(0, Value::of_int(1), Value::of_int(1), pkt);
  EXPECT_EQ(out.ps.as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(out.ss.as_int(), 0);
}

TEST_P(EngineSuite, IntArithmeticWrapsAtTheRange) {
  // `+`, `-`, `*`, unary `-` and `abs` wrap in two's complement in both
  // engines, where the signed operation would be undefined. The operands
  // come from the packet, so nothing is folded when the channel is lowered;
  // `mx + 1` and `mx + (z + 1)` take the fused immediate and the register
  // form of `+` in the JIT, and likewise for `-`.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  struct Case {
    std::string expr;
    std::int64_t value;
  };
  const Case cases[] = {
      {"mx + 1", kMin},       {"mx + (z + 1)", kMin}, {"mn - 1", kMax},
      {"mn - (z + 1)", kMax}, {"mn * (z - 1)", kMin}, {"-mn", kMin},
      {"abs(mn)", kMin},
  };
  const asp::net::Packet pkt =
      asp::net::Packet::make_raw({}, {}, std::vector<std::uint8_t>(64, 7));
  for (const Case& c : cases) {
    SCOPED_TRACE(c.expr);
    Loaded l = load("channel c(ps : int, ss : unit, p : ip*blob) is\n"
                    "  let val z : int = blobLen(#2 p) - 64\n"
                    "      val mx : int = 9223372036854775807 + z\n"
                    "      val mn : int = 0 - 9223372036854775807 - 1 + z\n"
                    "  in (deliver(p); (" + c.expr + ", ss)) end",
                    GetParam());
    const States out = l.engine->run_channel(0, Value::of_int(0), Value::unit(), pkt);
    EXPECT_EQ(out.ps.as_int(), c.value);
  }
}

TEST_P(EngineSuite, OperandsNearTheIntRangeStayInBounds) {
  // Offsets, lengths and sizes a gate-accepted program can pass. Each of
  // these once overflowed a bounds check, escaped a library exception or
  // asked for an impossible reservation, and took the node down; now the
  // blob reads stay total and the rest raise their PLAN-P exception.
  struct Case {
    std::string expr;
    std::int64_t value;  // when nothing is raised
    const char* raises;
  };
  const Case cases[] = {
      {"blobInt(b, 9223372036854775804)", 0, nullptr},
      {"if blobToString(blobPutInt(b, 9223372036854775804, 1)) = blobToString(b) "
       "then 1 else 0",
       1, nullptr},
      {"blobLen(blobSub(b, 9223372036854775807, 2))", 0, "OutOfBounds"},
      {"stringLen(substring(\"abc\", 9223372036854775807, 2))", 0, "OutOfBounds"},
      {"let val t : (int, int) hash_table = mkTable(4611686018427387904) in "
       "(tableSet(t, 1, 2); tableSize(t)) end",
       1, nullptr},
      {"stringToInt(\"99999999999999999999\")", 0, "BadNumber"},
      {"stringToInt(\"-9223372036854775808\")", std::numeric_limits<std::int64_t>::min(),
       nullptr},
  };
  const asp::net::Packet pkt =
      asp::net::Packet::make_raw({}, {}, std::vector<std::uint8_t>(64, 7));
  for (const Case& c : cases) {
    SCOPED_TRACE(c.expr);
    Loaded l = load("channel c(ps : int, ss : unit, p : ip*blob) is\n"
                    "  let val b : blob = #2 p in (deliver(p); (" + c.expr + ", ss)) end",
                    GetParam());
    try {
      const States out = l.engine->run_channel(0, Value::of_int(-1), Value::unit(), pkt);
      EXPECT_EQ(c.raises, nullptr);
      EXPECT_EQ(out.ps.as_int(), c.value);
    } catch (const PlanPException& e) {
      EXPECT_STREQ(e.name.c_str(), c.raises);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineSuite,
                         ::testing::Values(Which::kInterp, Which::kJit,
                                           Which::kJitNoFuse),
                         [](const ::testing::TestParamInfo<Which>& info) {
                           return which_name(info.param);
                         });

// ---------------------------------------------------------------------------
// Exhaustive differential sweep: many small expressions, the interpreter and
// the JIT with and without fusion, one packet matrix — results must be
// bit-identical across engines.
// ---------------------------------------------------------------------------

class DifferentialSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(DifferentialSweep, EnginesAgree) {
  std::string body = GetParam();
  std::string src =
      "channel c(ps : int, ss : int, p : ip*tcp*blob) initstate 0 is\n"
      "  (deliver(p); ((" + body + "), ss))";

  std::vector<Value> results;
  std::vector<std::string> outputs;
  for (Which w : {Which::kInterp, Which::kJit, Which::kJitNoFuse}) {
    Loaded l = load(src, w);
    Value acc = Value::of_int(0);
    for (int ps = -3; ps <= 3; ++ps) {
      asp::net::Packet pkt =
          mk_tcp_packet("10.0.0.1", "10.0.0.2", static_cast<std::uint16_t>(1000 + ps), 80,
                        std::vector<std::uint8_t>(static_cast<std::size_t>(ps + 4)));
      States out = l.engine->run_channel(0, Value::of_int(ps), Value::of_int(0), pkt);
      acc = Value::of_int(acc.as_int() * 31 + out.ps.as_int());
    }
    results.push_back(acc);
    outputs.push_back(l.env->output);
  }
  EXPECT_TRUE(results[0].equals(results[1]))
      << "interp=" << results[0].str() << " jit=" << results[1].str();
  EXPECT_TRUE(results[0].equals(results[2]))
      << "interp=" << results[0].str() << " jit_nofuse=" << results[2].str();
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(outputs[0], outputs[2]);
}

INSTANTIATE_TEST_SUITE_P(
    Expressions, DifferentialSweep,
    ::testing::Values(
        "ps + 1", "ps * ps - 3", "ps % 3 + ps / 2",
        "if ps > 0 then ps else -ps",
        "if ps = 0 then 100 else try 60 / ps with -9",
        "blobLen(#3 p) * 2 + tcpSrc(#2 p)",
        "(let val a : int = ps * 2 in a + (let val b : int = a + 1 in b * b end) end)",
        "if ps > 1 and ps < 3 then 1 else 0",
        "if ps < -1 or ps > 1 then 7 else 8",
        "max(min(ps, 2), -2) * 10",
        "abs(ps) + charPos('a')",
        "stringLen(intToString(ps * 1000))",
        "(try raise \"X\" with 5) + ps",
        // Literal tuples fold into constants; mixed ones are built.
        "#2 (1, 2) + #1 #1 ((ps, 3), 4) + #3 (5, 6, 7) + "
        "(if (ps, 1) = (0, 1) then 10 else 0)",
        "(let val t : ((int*int*int)*int, int) hash_table = mkTable(4) in "
        "(tableSet(t, ((1, 2, 3), 4), ps); tableGetDefault(t, ((1, 2, 3), 4), 0)) end)",
        "if tcpDst(#2 p) = 80 then ps + blobLen(#3 p) else raise \"NoMatch\"",
        "#1 (ps + 1, ps + 2) * #2 (ps + 3, ps + 4)",
        "(if ps % 2 = 0 then min(ps, 0) else max(ps, 0)) - (ps - 1)"));

// A pure primitive called on literals is folded into a constant when
// the JIT lowers it: `blobFromString("")` costs no buffer per packet (it was
// Const "" then CallPrim blobFromString, a pooled buffer on every object
// request of the edge-cache ASPs). Both engines still agree.
TEST(EngineFolding, LiteralCallOfPurePrimitiveTakesNoBufferPerPacket) {
  const std::string src = R"(
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  let val b : blob = #3 p
      val cached : blob = cacheGetDefault(cacheKey(blobInt(b, 0), ipDst(#1 p)),
                                          blobFromString(""))
  in (OnRemote(network, p); (ps + blobLen(cached) + min(3, 4), ss)) end
)";
  CheckedProgram checked = typecheck(parse(src));
  EXPECT_EQ(disassemble(JitProgram(checked)).find("blobFromString"), std::string::npos);
  std::vector<std::int64_t> results[2];
  for (Which w : {Which::kInterp, Which::kJit}) {
    Loaded l = load(src, w);
    Value ps = Value::of_int(0);
    std::uint64_t acquired = 0;
    for (int i = 0; i < 4; ++i) {
      const asp::net::Packet pkt = mk_udp_packet(static_cast<std::uint8_t>(i));
      const mem::PoolStats& st = mem::buffer_pool().stats();
      const std::uint64_t before = st.hits + st.misses;
      States out = l.engine->run_channel(0, ps, Value::unit(), pkt);
      acquired += st.hits + st.misses - before;
      ps = out.ps;
      results[w == Which::kJit].push_back(ps.as_int());
    }
    if (w == Which::kJit) {
      EXPECT_EQ(acquired, 0u);
    }
    EXPECT_EQ(l.env->sends.size(), 4u) << which_name(w);
  }
  EXPECT_EQ(results[0], results[1]);
}

// Sends are keyed by the channel tag the type checker interned: every engine
// hands EnvApi the same tags, for a user channel and for `network` alike.
TEST(EngineSends, InterpreterAndJitHandEnvTheSameTags) {
  CheckedProgram checked = typecheck(parse(R"(
channel audio(ps : int, ss : unit, p : ip*blob) is (drop(); (ps, ss))
channel network(ps : int, ss : unit, p : ip*blob) is
  (OnRemote(audio, p); OnNeighbor(network, p); OnRemote(network, (#1 p, #2 p));
   (ps, ss))
)"));
  const std::vector<std::uint32_t> expected = {
      asp::net::ChannelTags::intern("audio"), asp::net::ChannelTags::intern("network"),
      asp::net::ChannelTags::intern("network")};
  asp::net::Packet pkt =
      asp::net::Packet::make_raw(asp::net::ip("1.1.1.1"), asp::net::ip("2.2.2.2"), {1, 2, 3});
  for (Which w : {Which::kInterp, Which::kJitNoFuse, Which::kJit}) {
    NullEnv env;
    std::unique_ptr<Engine> engine;
    if (w == Which::kInterp) {
      engine = std::make_unique<Interp>(checked, env);
    } else {
      engine = std::make_unique<JitEngine>(checked, env, w == Which::kJit);
    }
    engine->run_channel(1, Value::of_int(0), Value::unit(), pkt);
    std::vector<std::uint32_t> tags;
    for (const auto& [tag, p] : env.sends) tags.push_back(tag);
    EXPECT_EQ(tags, expected) << which_name(w);
    ASSERT_EQ(env.sends.size(), 3u) << which_name(w);
    EXPECT_EQ(asp::net::ChannelTags::name_of(env.sends[0].first), "audio") << which_name(w);
    EXPECT_EQ(asp::net::ChannelTags::name_of(env.sends[2].first), "network") << which_name(w);
  }
}

// The JIT lowers a channel body's result into the two new states, passing
// that destination through if, let, sequences and try; any other result
// expression is built as a tuple and projected twice. Every shape must leave
// the interpreter's states, and a raise none: a body that has written the new
// ps when it raises must not have changed a state.
TEST(ChannelResults, EveryResultShapeAgreesAcrossEngines) {
  struct Shape {
    const char* name;
    std::string src;
    const char* want;  // the states after each of five packets
  };
  auto ints = [](const std::string& body) {
    return "val start : int*int = (1, 2)\n"
           "fun step(a : int, b : int) : int*int = (b + 1, a)\n"
           "channel c(ps : int, ss : int, p : ip*blob) initstate 5 is\n"
           "  (deliver(p); " + body + ")";
  };
  const std::vector<Shape> shapes = {
      {"constant pair", ints("(7, 9)"), "7,9;7,9;7,9;7,9;7,9;"},
      {"pair", ints("(ps + 1, ss * 2)"), "1,10;2,20;3,40;4,80;5,160;"},
      {"swap", ints("(ss, ps)"), "5,0;0,5;5,0;0,5;5,0;"},
      {"let-bound pair", ints("let val r : int*int = (ps + 1, ss * 2) in r end"),
       "1,10;2,20;3,40;4,80;5,160;"},
      {"function result", ints("step(ps, ss)"), "6,0;1,6;7,1;2,7;8,2;"},
      {"global pair", ints("start"), "1,2;1,2;1,2;1,2;1,2;"},
      {"projection", ints("#1 ((ps + 1, ss), 0)"), "1,5;2,5;3,5;4,5;5,5;"},
      {"if: pair or variable",
       ints("let val r : int*int = (ss, ps + 1) in "
            "if ps % 2 = 0 then (ps + 3, ss - 1) else r end"),
       "3,4;4,4;7,3;3,8;8,4;"},
      {"try: handler pair",
       ints("try (ps + 1, if ps > 2 then raise \"Big\" else ss + 1) with (ss, 0)"),
       "1,6;2,7;3,8;8,0;0,0;"},
      {"tail raise", ints("if ps > 1 then raise \"Stop\" else (ps + 1, ss + 1)"),
       "1,6;2,7;raise Stop;raise Stop;raise Stop;"},
      {"raise after the new ps", ints("(ps + 1, if ps > 1 then raise \"Stop\" else ss)"),
       "1,5;2,5;raise Stop;raise Stop;raise Stop;"},
      {"boxed swap",
       "channel c(ps : string, ss : string, p : ip*blob) initstate \"b\" is\n"
       "  (deliver(p); (ss, ps ^ \"a\"))",
       "b,a;a,ba;ba,aa;aa,baa;baa,aaa;"},
      {"tuple state",
       "channel c(ps : int*int, ss : unit, p : ip*blob) is\n"
       "  (deliver(p); ((#2 ps, #1 ps + 1), ss))",
       "(0, 1),();(1, 1),();(1, 2),();(2, 2),();(2, 3),();"},
  };
  const asp::net::Packet pkt = asp::net::Packet::make_raw({}, {}, {1, 2, 3});
  for (const Shape& shape : shapes) {
    for (Which w : {Which::kInterp, Which::kJitNoFuse, Which::kJit}) {
      Loaded l = load(shape.src, w);
      Value ps = default_value(l.checked.channels[0]->ps_type);
      Value ss = l.engine->init_state(0);
      std::string trace;
      for (int i = 0; i < 5; ++i) {
        try {
          States out = l.engine->run_channel(0, ps, ss, pkt);
          ps = std::move(out.ps);
          ss = std::move(out.ss);
          trace += ps.str() + "," + ss.str() + ";";
        } catch (const PlanPException& e) {
          trace += "raise " + e.name + ";";
        }
      }
      EXPECT_EQ(trace, shape.want) << shape.name << " on " << which_name(w);
    }
  }
}

// A compiled Protocol is shared by every node it is installed on, across
// shards: four threads run one program at once, each on its own engine.
// Its constants (a nested tuple used as a table key, projected and compared,
// and a blob) are read by all of them, and no const read may write: an
// engine copies a constant into its frame, but hashing the copy hashes the
// inner triple where the shared tuple stores it.
TEST(SharedProtocol, FourThreadsRunOneCompiledProgram) {
  const std::string src = R"(
val key : (int*int*int)*int = ((1, 2, 3), 4)
val tag : blob = blobFromString("abcd")
channel network(ps : int, ss : ((int*int*int)*int, int) hash_table, p : ip*blob)
initstate mkTable(16) is
  let val n : int = tableGetDefault(ss, key, 0) + 1 in
    (tableSet(ss, ((1, 2, 3), 4), n);
     deliver(p);
     (if key = ((1, 2, 3), 4) and #2 #1 key = 2 then ps + blobLen(tag) + n else ps, ss))
  end
)";
  constexpr int kThreads = 4;
  constexpr std::int64_t kPackets = 500;
  for (EngineKind kind : {EngineKind::kJit, EngineKind::kInterp}) {
    std::shared_ptr<const Protocol> proto =
        Protocol::compile(src, {.engine = kind, .require_verified = false});
    std::atomic<int> ready{0};
    std::vector<std::int64_t> result(kThreads, -1);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        mem::bind_shard(-1);
        NullEnv env;
        std::unique_ptr<Engine> engine = proto->instantiate(env);
        Value ps = Value::of_int(0);
        Value ss = engine->init_state(0);
        const asp::net::Packet pkt = asp::net::Packet::make_raw({}, {}, {1, 2, 3});
        ++ready;
        while (ready.load() < kThreads) std::this_thread::yield();
        try {
          for (std::int64_t i = 0; i < kPackets; ++i) {
            States out = engine->run_channel(0, ps, ss, pkt);
            ps = std::move(out.ps);
            ss = std::move(out.ss);
            env.delivered.clear();
          }
          result[static_cast<std::size_t>(t)] = ps.as_int();
        } catch (...) {
          // The thread's result stays -1, which the check below reports.
        }
      });
    }
    for (std::thread& th : threads) th.join();
    // Packet n adds blobLen(tag) + n.
    for (std::int64_t r : result) {
      EXPECT_EQ(r, 4 * kPackets + kPackets * (kPackets + 1) / 2)
          << (kind == EngineKind::kJit ? "jit" : "interp");
    }
  }
}

}  // namespace
}  // namespace asp::planp
