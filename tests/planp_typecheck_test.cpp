#include "planp/typecheck.hpp"

#include <gtest/gtest.h>

#include "planp/parser.hpp"

namespace asp::planp {
namespace {

CheckedProgram check(const std::string& src) { return typecheck(parse(src)); }

void expect_type_error(const std::string& src, const std::string& fragment = "") {
  try {
    check(src);
    FAIL() << "expected type error for:\n" << src;
  } catch (const PlanPError& e) {
    if (!fragment.empty()) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << "actual: " << e.what();
    }
  }
}

TEST(Typecheck, ValWithMatchingType) {
  CheckedProgram p = check("val x : int = 1 + 2 * 3");
  ASSERT_EQ(p.globals.size(), 1u);
  EXPECT_TRUE(p.globals[0]->init->type->is(Type::Kind::kInt));
}

TEST(Typecheck, ValWithMismatchedTypeFails) {
  expect_type_error("val x : int = true", "expected int");
  expect_type_error("val x : string = 5");
  expect_type_error("val x : host = \"1.2.3.4\"");
}

TEST(Typecheck, ArithmeticRequiresInts) {
  expect_type_error("val x : int = 1 + true");
  expect_type_error("val x : int = \"a\" * 2");
}

TEST(Typecheck, StringConcat) {
  check("val x : string = \"a\" ^ \"b\"");
  expect_type_error("val x : string = \"a\" ^ 1");
}

TEST(Typecheck, EqualityOnEqualityTypesOnly) {
  check("val x : bool = 1 = 2");
  check("val x : bool = 1.2.3.4 <> 5.6.7.8");
  check("val x : bool = (1, true) = (2, false)");
  expect_type_error(
      "channel c(ps : unit, ss : unit, p : ip*blob) is\n"
      "  (if #2 p = #2 p then (deliver(p); (ps,ss)) else (ps,ss))",
      "equality");
}

TEST(Typecheck, EqualityRequiresSameTypes) {
  expect_type_error("val x : bool = 1 = true");
  expect_type_error("val x : bool = 'c' = \"c\"");
}

TEST(Typecheck, OrderingOnIntCharString) {
  check("val a : bool = 1 < 2");
  check("val b : bool = 'a' <= 'b'");
  check("val c : bool = \"a\" > \"b\"");
  expect_type_error("val d : bool = true < false");
  expect_type_error("val e : bool = (1,2) < (3,4)");
}

TEST(Typecheck, UnboundVariable) {
  expect_type_error("val x : int = y", "unbound variable 'y'");
}

TEST(Typecheck, LetBindingScopes) {
  check("val x : int = let val a : int = 1 in a + a end");
  expect_type_error("val x : int = (let val a : int = 1 in a end) + a",
                    "unbound variable 'a'");
}

TEST(Typecheck, LetAnnotationEnforced) {
  expect_type_error("val x : int = let val a : bool = 1 in 2 end");
}

TEST(Typecheck, IfBranchesMustAgree) {
  check("val x : int = if true then 1 else 2");
  expect_type_error("val x : int = if true then 1 else false");
  expect_type_error("val x : int = if 1 then 2 else 3", "expected bool");
}

TEST(Typecheck, RaiseAdoptsContextType) {
  check("val x : int = if true then 1 else raise \"Bad\"");
  check("val x : string = try raise \"Oops\" with \"fallback\"");
}

TEST(Typecheck, ProjectionRanges) {
  check("val x : bool = #2 (1, true, 'c')");
  expect_type_error("val x : int = #4 (1, 2, 3)", "out of range");
  expect_type_error("val x : int = #0 (1, 2)", "out of range");
  expect_type_error("val x : int = #1 5", "non-tuple");
}

TEST(Typecheck, FunctionsCheckArgumentsAndResult) {
  check("fun add(a : int, b : int) : int = a + b\n"
        "val x : int = add(1, 2)");
  expect_type_error("fun f(a : int) : int = a\nval x : int = f(true)");
  expect_type_error("fun f(a : int) : int = a\nval x : int = f(1, 2)", "expects 1");
  expect_type_error("fun f(a : int) : bool = a");
}

TEST(Typecheck, NoRecursion) {
  // A function cannot call itself...
  expect_type_error("fun f(a : int) : int = f(a)", "unknown function");
  // ...nor a function defined later (no mutual recursion).
  expect_type_error("fun f(a : int) : int = g(a)\nfun g(a : int) : int = f(a)",
                    "unknown function");
}

TEST(Typecheck, FunctionsMayNotShadowPrimitives) {
  expect_type_error("fun min(a : int, b : int) : int = a", "shadows a built-in");
}

TEST(Typecheck, DuplicateDefinitionsRejected) {
  expect_type_error("val x : int = 1\nval x : int = 2", "duplicate");
  expect_type_error("fun f(a : int) : int = a\nval f : int = 1", "duplicate");
}

TEST(Typecheck, MkTableInfersFromAnnotation) {
  CheckedProgram p = check("val t : (host, int) hash_table = mkTable(64)");
  EXPECT_EQ(p.globals[0]->init->type->str(), "(host, int) hash_table");
}

TEST(Typecheck, MkTableWithoutContextFails) {
  expect_type_error(
      "channel c(ps : unit, ss : unit, p : ip*blob) is (deliver(p); (ps, mkTable(4)))",
      "cannot infer");
}

TEST(Typecheck, TableOpsUnifyKeyAndValueTypes) {
  check(R"(
val t : (host, int) hash_table = mkTable(16)
val u : unit = tableSet(t, 1.2.3.4, 42)
val x : int = tableGet(t, 5.6.7.8)
val b : bool = tableMem(t, 1.2.3.4)
)");
  expect_type_error(
      "val t : (host, int) hash_table = mkTable(16)\n"
      "val x : int = tableGet(t, 99)");
  expect_type_error(
      "val t : (host, int) hash_table = mkTable(16)\n"
      "val u : unit = tableSet(t, 1.2.3.4, true)");
}

TEST(Typecheck, TableKeyTypesMustBeHashable) {
  expect_type_error("val t : (blob, int) hash_table = mkTable(4)", "not hashable");
  expect_type_error("val t : ((int*blob), int) hash_table = mkTable(4)",
                    "not hashable");
  expect_type_error("val t : (ip, int) hash_table = mkTable(4)", "not hashable");
  expect_type_error(
      "channel c(ps : (blob, int) hash_table, ss : unit, p : ip*blob) is\n"
      "  (tableSet(ps, #2 p, 1); deliver(p); (ps, ss))",
      "not hashable");
  check("val t : ((int*int*int)*int, bool*char) hash_table = mkTable(4)");
  check("val t : (string*host, (int, int) hash_table) hash_table = mkTable(4)");
}

TEST(Typecheck, PrimitiveOverloadsResolveByArgument) {
  check("val a : unit = println(1)\n"
        "val b : unit = println(\"s\")\n"
        "val c : unit = println(true)\n"
        "val d : unit = println(1.2.3.4)");
  expect_type_error("val a : unit = println((1, 2))", "no matching overload");
}

TEST(Typecheck, UnknownPrimitive) {
  expect_type_error("val x : int = frobnicate(1)", "unknown function or primitive");
}

TEST(Typecheck, ChannelBodyMustReturnStatePair) {
  check("channel c(ps : int, ss : int, p : ip*blob) is (deliver(p); (ps + 1, ss))");
  expect_type_error(
      "channel c(ps : int, ss : int, p : ip*blob) is (ps, ss, 1)");
  expect_type_error("channel c(ps : int, ss : int, p : ip*blob) is ps");
}

TEST(Typecheck, ChannelPacketTypeValidation) {
  expect_type_error("channel c(ps : unit, ss : unit, p : int) is (ps, ss)",
                    "not a valid packet type");
  expect_type_error("channel c(ps : unit, ss : unit, p : tcp*ip*blob) is (ps, ss)",
                    "not a valid packet type");
  expect_type_error("channel c(ps : unit, ss : unit, p : ip*blob*int) is (ps, ss)",
                    "not a valid packet type");
  // Valid shapes:
  check("channel c(ps : unit, ss : unit, p : ip*tcp*blob) is (deliver(p); (ps, ss))");
  check("channel c(ps : unit, ss : unit, p : ip*udp*char*int*blob) is (deliver(p); (ps, ss))");
  check("channel c(ps : unit, ss : unit, p : ip*blob) is (deliver(p); (ps, ss))");
}

TEST(Typecheck, InitstateMustMatchChannelStateType) {
  check("channel c(ps : unit, ss : int, p : ip*blob) initstate 5 is (deliver(p); (ps, ss))");
  expect_type_error(
      "channel c(ps : unit, ss : int, p : ip*blob) initstate true is (ps, ss)");
}

TEST(Typecheck, OverloadedChannelsNeedDistinctPacketTypes) {
  expect_type_error(
      "channel c(ps : unit, ss : unit, p : ip*blob) is (deliver(p); (ps, ss))\n"
      "channel c(ps : unit, ss : unit, p : ip*blob) is (deliver(p); (ps, ss))",
      "duplicate channel");
}

TEST(Typecheck, OnRemoteChecksPacketAgainstChannelType) {
  check(R"(
channel c(ps : unit, ss : unit, p : ip*tcp*blob) is
  (OnRemote(c, (ipDestSet(#1 p, 10.0.0.1), #2 p, #3 p)); (ps, ss))
)");
  expect_type_error(R"(
channel c(ps : unit, ss : unit, p : ip*tcp*blob) is
  (OnRemote(c, (#2 p, #1 p, #3 p)); (ps, ss))
)");
  expect_type_error(
      "channel c(ps : unit, ss : unit, p : ip*blob) is (OnRemote(nochan, p); (ps, ss))",
      "unknown channel");
}

TEST(Typecheck, OverloadedChannelSendMatchesOneOverload) {
  check(R"(
channel c(ps : unit, ss : unit, p : ip*tcp*char*int) is (deliver(p); (ps, ss))
channel c(ps : unit, ss : unit, p : ip*tcp*char*bool) is (deliver(p); (ps, ss))
channel d(ps : unit, ss : unit, p : ip*tcp*blob) is
  (OnRemote(c, (#1 p, #2 p, 'a', 5)); (ps, ss))
)");
  expect_type_error(R"(
channel c(ps : unit, ss : unit, p : ip*tcp*char*int) is (deliver(p); (ps, ss))
channel c(ps : unit, ss : unit, p : ip*tcp*char*bool) is (deliver(p); (ps, ss))
channel d(ps : unit, ss : unit, p : ip*tcp*blob) is
  (OnRemote(c, (#1 p, #2 p, "x", 5)); (ps, ss))
)",
                    "no overload");
}

TEST(Typecheck, DeliverRequiresPacketValue) {
  expect_type_error("channel c(ps : unit, ss : unit, p : ip*blob) is (deliver(5); (ps, ss))",
                    "requires a packet value");
}

TEST(Typecheck, HeaderAccessors) {
  check(R"(
channel c(ps : unit, ss : unit, p : ip*tcp*blob) is
  let val iph : ip = #1 p
      val t : tcp = #2 p
      val src : host = ipSrc(iph)
      val port : int = tcpDst(t)
      val n : int = blobLen(#3 p)
  in (deliver(p); (ps, ss)) end
)");
  expect_type_error("channel c(ps : unit, ss : unit, p : ip*udp*blob) is\n"
                    "  (println(tcpDst(#2 p)); (deliver(p); (ps, ss)))");
}

TEST(Typecheck, PaperFigure2GatewayFragmentChecks) {
  // The load-balancing fragment of Figure 2, completed and adapted to our
  // (key, value) hash_table syntax.
  check(R"(
fun getSetS(src : host, dst : host, sport : int,
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
      let val con : int = getSetS(ipSrc(iph), ipDst(iph), tcpSrc(tcph), ss, ps) in
        if con = 0 then
          (OnRemote(network, (ipDestSet(iph, 131.254.60.81), tcph, body));
           (con, ss))
        else
          (OnRemote(network, (ipDestSet(iph, 131.254.60.109), tcph, body));
           (con, ss))
      end
    else
      (OnRemote(network, p); (ps, ss))
  end
)");
}

TEST(Typecheck, GlobalsVisibleInChannels) {
  check("val limit : int = 50\n"
        "channel c(ps : int, ss : unit, p : ip*blob) is\n"
        "  (deliver(p); (if ps > limit then 0 else ps + 1, ss))");
}

TEST(Typecheck, FrameSlotsAssigned) {
  CheckedProgram p = check(R"(
channel c(ps : unit, ss : unit, p : ip*tcp*blob) is
  let val a : ip = #1 p
      val b : tcp = #2 p
  in (deliver(p); (ps, ss)) end
)");
  ASSERT_EQ(p.channels.size(), 1u);
  EXPECT_GE(p.channels[0]->frame_slots, 5);  // ps, ss, p, a, b
}

}  // namespace
}  // namespace asp::planp
