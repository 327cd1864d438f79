#include "planp/interp.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "planp/parser.hpp"

namespace asp::planp {
namespace {

// Evaluates a top-level `val x : <type> = <expr>` and returns the value.
Value eval_val(const std::string& type, const std::string& expr,
               NullEnv* env_out = nullptr) {
  static NullEnv default_env;
  NullEnv& env = env_out != nullptr ? *env_out : default_env;
  CheckedProgram p = typecheck(parse("val x : " + type + " = " + expr));
  Interp interp(p, env);
  return interp.global(0);
}

TEST(Interp, Arithmetic) {
  EXPECT_EQ(eval_val("int", "1 + 2 * 3").as_int(), 7);
  EXPECT_EQ(eval_val("int", "(10 - 4) / 2").as_int(), 3);
  EXPECT_EQ(eval_val("int", "10 % 3").as_int(), 1);
  EXPECT_EQ(eval_val("int", "-(5)").as_int(), -5);
  EXPECT_EQ(eval_val("int", "- - 5").as_int(), 5);
}

TEST(Interp, DivisionByZeroRaises) {
  EXPECT_THROW(eval_val("int", "let val z : int = 0 in 1 / z end"), PlanPException);
  EXPECT_THROW(eval_val("int", "let val z : int = 0 in 1 % z end"), PlanPException);
  EXPECT_EQ(eval_val("int", "try let val z : int = 0 in 1 / z end with 99").as_int(), 99);
}

TEST(Interp, Comparisons) {
  EXPECT_TRUE(eval_val("bool", "1 < 2").as_bool());
  EXPECT_FALSE(eval_val("bool", "2 < 1").as_bool());
  EXPECT_TRUE(eval_val("bool", "'a' < 'b'").as_bool());
  EXPECT_TRUE(eval_val("bool", "\"abc\" < \"abd\"").as_bool());
  EXPECT_TRUE(eval_val("bool", "3 >= 3").as_bool());
  EXPECT_TRUE(eval_val("bool", "1.2.3.4 = 1.2.3.4").as_bool());
  EXPECT_TRUE(eval_val("bool", "1.2.3.4 <> 1.2.3.5").as_bool());
}

TEST(Interp, BooleanShortCircuit) {
  // The right operand would raise; short-circuit must avoid it.
  EXPECT_FALSE(
      eval_val("bool", "false and (try raise \"X\" with true)").as_bool());
  EXPECT_FALSE(eval_val("bool", "let val z : int = 0 in false and (1 / z = 1) end")
                   .as_bool());
  EXPECT_TRUE(eval_val("bool", "let val z : int = 0 in true or (1 / z = 1) end")
                  .as_bool());
}

TEST(Interp, LetShadowing) {
  EXPECT_EQ(eval_val("int",
                     "let val a : int = 1 in "
                     "(let val a : int = 2 in a end) + a end")
                .as_int(),
            3);
}

TEST(Interp, TuplesAndProjection) {
  EXPECT_EQ(eval_val("int", "#2 (1, 42, 3)").as_int(), 42);
  EXPECT_TRUE(eval_val("bool", "#1 (true, 1)").as_bool());
  EXPECT_EQ(eval_val("int", "#1 #2 ((1, 2), (30, 4))").as_int(), 30);
}

TEST(Interp, Sequencing) {
  NullEnv env;
  eval_val("unit", "(print(\"a\"); print(\"b\"); print(\"c\"))", &env);
  EXPECT_EQ(env.output, "abc");
}

TEST(Interp, StringOps) {
  EXPECT_EQ(eval_val("string", "\"foo\" ^ \"bar\"").as_string(), "foobar");
  EXPECT_EQ(eval_val("int", "stringLen(\"hello\")").as_int(), 5);
  EXPECT_EQ(eval_val("string", "substring(\"hello\", 1, 3)").as_string(), "ell");
  EXPECT_TRUE(eval_val("bool", "startsWith(\"GET /x\", \"GET\")").as_bool());
  EXPECT_EQ(eval_val("int", "strIndex(\"hello\", \"ll\")").as_int(), 2);
  EXPECT_EQ(eval_val("int", "strIndex(\"hello\", \"zz\")").as_int(), -1);
}

TEST(Interp, CharOps) {
  EXPECT_EQ(eval_val("int", "charPos('A')").as_int(), 65);
  EXPECT_EQ(eval_val("char", "chr(66)").as_char(), 'B');
  EXPECT_THROW(eval_val("char", "chr(300)"), PlanPException);
}

TEST(Interp, ExceptionsPropagateAndAreCaught) {
  EXPECT_THROW(eval_val("int", "raise \"Boom\""), PlanPException);
  EXPECT_EQ(eval_val("int", "try raise \"Boom\" with 7").as_int(), 7);
  EXPECT_EQ(eval_val("int", "try 5 with 7").as_int(), 5);
  // Nested: inner catches, outer unaffected.
  EXPECT_EQ(eval_val("int", "try (try raise \"A\" with 1) with 2").as_int(), 1);
  // Exception escaping the protected part of an inner try reaches the outer.
  EXPECT_EQ(eval_val("int", "try (try 1 with 2) + (raise \"B\") with 9").as_int(), 9);
}

TEST(Interp, UserFunctions) {
  NullEnv env;
  CheckedProgram p = typecheck(parse(R"(
fun double(x : int) : int = x * 2
fun quad(x : int) : int = double(double(x))
val r : int = quad(5)
)"));
  Interp interp(p, env);
  EXPECT_EQ(interp.eval_expr(*p.globals[0]->init).as_int(), 20);
}

TEST(Interp, HashTablesAreMutableSharedState) {
  NullEnv env;
  CheckedProgram p = typecheck(parse(R"(
val t : (host, int) hash_table = mkTable(8)
val a : unit = tableSet(t, 10.0.0.1, 42)
val b : int = tableGet(t, 10.0.0.1)
val c : bool = tableMem(t, 10.0.0.2)
val d : int = tableGetDefault(t, 10.0.0.2, -1)
val e : int = tableSize(t)
)"));
  Interp interp(p, env);
  EXPECT_EQ(interp.global(2).as_int(), 42);
  EXPECT_FALSE(interp.global(3).as_bool());
  EXPECT_EQ(interp.global(4).as_int(), -1);
  EXPECT_EQ(interp.global(5).as_int(), 1);
}

TEST(Interp, TableGetMissingKeyRaises) {
  EXPECT_THROW(
      eval_val("int",
               "let val t : (int, int) hash_table = mkTable(4) in tableGet(t, 1) end"),
      PlanPException);
}

TEST(Interp, TupleKeysInTables) {
  EXPECT_EQ(eval_val("int", R"(
let val t : (host*int, int) hash_table = mkTable(4)
    val u : unit = tableSet(t, (10.0.0.1, 80), 1)
    val v : unit = tableSet(t, (10.0.0.1, 81), 2)
in tableGet(t, (10.0.0.1, 81)) end)")
                .as_int(),
            2);
}

TEST(Interp, HeaderPrimitives) {
  NullEnv env;
  CheckedProgram p = typecheck(parse(R"(
channel c(ps : unit, ss : unit, p : ip*tcp*blob) is
  let val iph : ip = ipDestSet(#1 p, 9.9.9.9)
  in (OnRemote(c, (iph, tcpDstSet(#2 p, 8080), #3 p)); (ps, ss)) end
)"));
  Interp interp(p, env);
  asp::net::Packet pkt = asp::net::Packet::make_tcp(
      asp::net::ip("1.1.1.1"), asp::net::ip("2.2.2.2"), {1234, 80, 0, 0, 0, 0}, {1, 2, 3});
  interp.run_channel(0, Value::unit(), Value::unit(), pkt);
  ASSERT_EQ(env.sends.size(), 1u);
  const asp::net::Packet& sent = env.sends[0].second;
  EXPECT_EQ(sent.ip.dst.str(), "9.9.9.9");
  EXPECT_EQ(sent.ip.src.str(), "1.1.1.1");
  EXPECT_EQ(sent.tcp->dport, 8080);
}

TEST(Interp, ChannelStateThreading) {
  NullEnv env;
  CheckedProgram p = typecheck(parse(
      "channel counter(ps : int, ss : int, p : ip*blob) initstate 100 is\n"
      "  (deliver(p); (ps + 1, ss + 2))"));
  Interp interp(p, env);
  EXPECT_EQ(interp.init_state(0).as_int(), 100);
  States out = interp.run_channel(0, Value::of_int(0), Value::of_int(100), asp::net::Packet{});
  EXPECT_EQ(out.ps.as_int(), 1);
  EXPECT_EQ(out.ss.as_int(), 102);
}

TEST(Interp, EnvPrimitives) {
  NullEnv env;
  env.host = asp::net::ip("5.5.5.5");
  env.now_ms = 12345;
  env.load_percent = 73;
  CheckedProgram p = typecheck(parse(
      "val h : host = thisHost()\nval t : int = getTime()\nval l : int = linkLoad()"));
  Interp interp(p, env);
  EXPECT_EQ(interp.eval_expr(*p.globals[0]->init).as_host().str(), "5.5.5.5");
  EXPECT_EQ(interp.eval_expr(*p.globals[1]->init).as_int(), 12345);
  EXPECT_EQ(interp.eval_expr(*p.globals[2]->init).as_int(), 73);
}

TEST(Interp, AudioPrimitivesRoundTrip) {
  // 2 stereo frames of 16-bit samples.
  EXPECT_EQ(eval_val("int",
                     "blobLen(audioStereoToMono(blobSub(blobFromString(\"abcdefgh\"), 0, 8)))")
                .as_int(),
            4);
  EXPECT_EQ(eval_val("int", "blobLen(audio16To8(blobFromString(\"abcd\")))").as_int(), 2);
  EXPECT_EQ(eval_val("int", "blobLen(audio8To16(blobFromString(\"ab\")))").as_int(), 4);
  EXPECT_EQ(eval_val("int", "blobLen(audioMonoToStereo(blobFromString(\"ab\")))").as_int(),
            4);
}

TEST(Interp, DropAndDeliverEffects) {
  NullEnv env;
  CheckedProgram p = typecheck(parse(
      "channel c(ps : unit, ss : unit, p : ip*blob) is\n"
      "  (if blobLen(#2 p) > 0 then deliver(p) else drop(); (ps, ss))"));
  Interp interp(p, env);
  asp::net::Packet with_data = asp::net::Packet::make_raw({}, {}, {1});
  interp.run_channel(0, Value::unit(), Value::unit(), with_data);
  interp.run_channel(0, Value::unit(), Value::unit(), asp::net::Packet{});
  EXPECT_EQ(env.delivered.size(), 1u);
  EXPECT_EQ(env.drops, 1);
}

}  // namespace
}  // namespace asp::planp
