// Cross-engine semantics: the interpreter is the reference implementation;
// the run-time-specialized JIT, with and without superinstruction fusion,
// must agree with it on results, state updates, emitted packets and raised
// exceptions. This mirrors the paper's claim that the JIT is *derived from*
// the interpreter and preserves its semantics.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "planp/interp.hpp"
#include "planp/jit.hpp"
#include "planp/parser.hpp"

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

Value mk_tcp_packet(const char* src, const char* dst, std::uint16_t sport,
                    std::uint16_t dport, std::vector<std::uint8_t> body = {1, 2, 3}) {
  return Value::of_tuple(
      {Value::of_ip({asp::net::ip(src), asp::net::ip(dst), asp::net::IpProto::kTcp}),
       Value::of_tcp({sport, dport, 0, 0, 0, 0}), Value::of_blob(std::move(body))});
}

TEST_P(EngineSuite, CountsPacketsInState) {
  Loaded l = load(
      "channel c(ps : int, ss : int, p : ip*tcp*blob) initstate 0 is\n"
      "  (deliver(p); (ps + 1, ss + blobLen(#3 p)))",
      GetParam());
  Value ps = Value::of_int(0);
  Value ss = l.engine->init_state(0);
  EXPECT_EQ(ss.as_int(), 0);
  for (int i = 0; i < 5; ++i) {
    Value out = l.engine->run_channel(0, ps, ss, mk_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2));
    ps = out.as_tuple()[0];
    ss = out.as_tuple()[1];
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
    Value out =
        l.engine->run_channel(0, ps, ss, mk_tcp_packet(src, "9.9.9.9", sport, dport));
    ps = out.as_tuple()[0];
    ss = out.as_tuple()[1];
    return l.env->sends.back().second.as_tuple()[0].as_ip().dst.str();
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
  Value p_int = Value::of_tuple(
      {Value::of_ip({}), Value::of_tcp({}), Value::of_char('A'), Value::of_int(10)});
  Value out =
      l.engine->run_channel(0, Value::unit(), l.engine->init_state(0), p_int);
  EXPECT_EQ(out.as_tuple()[1].as_int(), 10);

  Value p_bool = Value::of_tuple(
      {Value::of_ip({}), Value::of_tcp({}), Value::of_char('B'), Value::of_bool(true)});
  Value out2 =
      l.engine->run_channel(1, Value::unit(), l.engine->init_state(1), p_bool);
  EXPECT_EQ(out2.as_tuple()[1].as_int(), 1);
}

TEST_P(EngineSuite, ExceptionInChannelPropagates) {
  Loaded l = load(
      "channel c(ps : unit, ss : unit, p : ip*blob) is\n"
      "  (if blobLen(#2 p) > 100 then raise \"TooBig\" else deliver(p); (ps, ss))",
      GetParam());
  Value small = Value::of_tuple({Value::of_ip({}), Value::of_blob(std::vector<std::uint8_t>(10))});
  Value big = Value::of_tuple({Value::of_ip({}), Value::of_blob(std::vector<std::uint8_t>(200))});
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
  Value pkt = Value::of_tuple({Value::of_ip({}), Value::of_blob({1, 2})});
  // First packet: miss -> -1; records 0. Second: hit -> 0.
  Value o1 = l.engine->run_channel(0, Value::of_int(0), ss, pkt);
  EXPECT_EQ(o1.as_tuple()[0].as_int(), -1);
  Value o2 = l.engine->run_channel(0, Value::of_int(7), o1.as_tuple()[1], pkt);
  EXPECT_EQ(o2.as_tuple()[0].as_int(), 0);
}

TEST_P(EngineSuite, GlobalsSharedAcrossChannels) {
  Loaded l = load(R"(
val threshold : int = 50
channel c(ps : int, ss : unit, p : ip*blob) is
  (deliver(p); (if blobLen(#2 p) > threshold then ps + 1 else ps, ss))
)",
                  GetParam());
  Value big = Value::of_tuple({Value::of_ip({}), Value::of_blob(std::vector<std::uint8_t>(60))});
  Value out = l.engine->run_channel(0, Value::of_int(0), Value::unit(), big);
  EXPECT_EQ(out.as_tuple()[0].as_int(), 1);
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
  Value pkt = Value::of_tuple({Value::of_ip({}), Value::of_blob({})});
  // ps=4: f(12,11)=1, try 4/0 -> 11 => g=12; f(1,2)=1; even -> +100 => 113.
  Value out = l.engine->run_channel(0, Value::of_int(4), Value::unit(), pkt);
  EXPECT_EQ(out.as_tuple()[0].as_int(), 113);
  // ps=5: f(15,12)=3 + 11 = 14; +1; odd -> +200 => 215.
  Value out2 = l.engine->run_channel(0, Value::of_int(5), Value::unit(), pkt);
  EXPECT_EQ(out2.as_tuple()[0].as_int(), 215);
}

TEST_P(EngineSuite, PrintsMatchReference) {
  Loaded l = load(R"(
channel c(ps : unit, ss : unit, p : ip*tcp*char*int) is
  if charPos(#3 p) = 65 then
    (print("CmdA: "); println(#4 p); (deliver(p); (ps, ss)))
  else (deliver(p); (ps, ss))
)",
                  GetParam());
  Value pkt = Value::of_tuple(
      {Value::of_ip({}), Value::of_tcp({}), Value::of_char('A'), Value::of_int(42)});
  l.engine->run_channel(0, Value::unit(), Value::unit(), pkt);
  EXPECT_EQ(l.env->output, "CmdA: 42\n");
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
      Value pkt = mk_tcp_packet("10.0.0.1", "10.0.0.2", 1000 + ps, 80,
                                std::vector<std::uint8_t>(static_cast<std::size_t>(ps + 4)));
      Value out = l.engine->run_channel(0, Value::of_int(ps), Value::of_int(0), pkt);
      acc = Value::of_int(acc.as_int() * 31 + out.as_tuple()[0].as_int());
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
        // Literal tuples fold into frozen constants; mixed ones are built.
        "#2 (1, 2) + #1 #1 ((ps, 3), 4) + #3 (5, 6, 7) + "
        "(if (ps, 1) = (0, 1) then 10 else 0)",
        "(let val t : ((int*int*int)*int, int) hash_table = mkTable(4) in "
        "(tableSet(t, ((1, 2, 3), 4), ps); tableGetDefault(t, ((1, 2, 3), 4), 0)) end)",
        "if tcpDst(#2 p) = 80 then ps + blobLen(#3 p) else raise \"NoMatch\"",
        "#1 (ps + 1, ps + 2) * #2 (ps + 3, ps + 4)",
        "(if ps % 2 = 0 then min(ps, 0) else max(ps, 0)) - (ps - 1)"));

// Sends are keyed by the channel tag the type checker interned: every engine
// hands EnvApi the same tags, for a user channel and for `network` alike.
TEST(EngineSends, InterpreterAndJitHandEnvTheSameTags) {
  struct TagEnv : NullEnv {
    void on_remote(std::uint32_t tag, const Value& p) override {
      tags.push_back(tag);
      NullEnv::on_remote(tag, p);
    }
    void on_neighbor(std::uint32_t tag, const Value& p) override {
      tags.push_back(tag);
      NullEnv::on_neighbor(tag, p);
    }
    std::vector<std::uint32_t> tags;
  };
  CheckedProgram checked = typecheck(parse(R"(
channel audio(ps : int, ss : unit, p : ip*blob) is (drop(); (ps, ss))
channel network(ps : int, ss : unit, p : ip*blob) is
  (OnRemote(audio, p); OnNeighbor(network, p); OnRemote(network, (#1 p, #2 p));
   (ps, ss))
)"));
  const std::vector<std::uint32_t> expected = {
      asp::net::ChannelTags::intern("audio"), asp::net::ChannelTags::intern("network"),
      asp::net::ChannelTags::intern("network")};
  Value pkt = Value::of_tuple(
      {Value::of_ip({asp::net::ip("1.1.1.1"), asp::net::ip("2.2.2.2"),
                     asp::net::IpProto::kRaw}),
       Value::of_blob({1, 2, 3})});
  for (Which w : {Which::kInterp, Which::kJitNoFuse, Which::kJit}) {
    TagEnv env;
    std::unique_ptr<Engine> engine;
    if (w == Which::kInterp) {
      engine = std::make_unique<Interp>(checked, env);
    } else {
      engine = std::make_unique<JitEngine>(checked, env, w == Which::kJit);
    }
    engine->run_channel(1, Value::of_int(0), Value::unit(), pkt);
    EXPECT_EQ(env.tags, expected) << which_name(w);
    ASSERT_EQ(env.sends.size(), 3u) << which_name(w);
    EXPECT_EQ(env.sends[0].first, "audio") << which_name(w);
    EXPECT_EQ(env.sends[2].first, "network") << which_name(w);
  }
}

}  // namespace
}  // namespace asp::planp
