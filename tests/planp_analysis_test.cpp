#include "planp/analysis.hpp"

#include <gtest/gtest.h>

#include "planp/parser.hpp"
#include "planp/program.hpp"
#include "planp/primitives.hpp"

namespace asp::planp {
namespace {

AnalysisReport run(const std::string& src) { return analyze(typecheck(parse(src))); }

TEST(Analysis, LocalTerminationAlwaysHolds) {
  // By construction: no loops, no recursion. The checker rejects recursion
  // before the analysis even runs; anything that checks locally terminates.
  AnalysisReport r = run("channel c(ps : unit, ss : unit, p : ip*blob) is (deliver(p); (ps, ss))");
  EXPECT_TRUE(r.local_termination);
}

// --- global termination ------------------------------------------------------

TEST(Analysis, ForwardingWithUnchangedDestinationTerminates) {
  AnalysisReport r = run(
      "channel c(ps : unit, ss : unit, p : ip*tcp*blob) is (OnRemote(c, p); (ps, ss))");
  EXPECT_TRUE(r.global_termination) << r.global_termination_detail;
  EXPECT_GT(r.states_explored, 0);
}

TEST(Analysis, RewriteToFixedServerTerminates) {
  // The HTTP gateway shape: rewrite to a literal once; afterwards preserved.
  AnalysisReport r = run(R"(
channel network(ps : unit, ss : unit, p : ip*tcp*blob) is
  if tcpDst(#2 p) = 80 then
    (OnRemote(network, (ipDestSet(#1 p, 131.254.60.81), #2 p, #3 p)); (ps, ss))
  else (OnRemote(network, p); (ps, ss))
)");
  EXPECT_TRUE(r.global_termination) << r.global_termination_detail;
}

TEST(Analysis, PingPongBetweenTwoLiteralsIsRejected) {
  AnalysisReport r = run(R"(
channel c(ps : unit, ss : unit, p : ip*blob) is
  if ipDst(#1 p) = 10.0.0.1 then
    (OnRemote(c, (ipDestSet(#1 p, 10.0.0.2), #2 p)); (ps, ss))
  else
    (OnRemote(c, (ipDestSet(#1 p, 10.0.0.1), #2 p)); (ps, ss))
)");
  EXPECT_FALSE(r.global_termination);
  EXPECT_NE(r.global_termination_detail.find("cycle"), std::string::npos);
}

TEST(Analysis, BounceBackToSourceIsRejected) {
  // dst := src every hop could ping-pong forever.
  AnalysisReport r = run(R"(
channel c(ps : unit, ss : unit, p : ip*blob) is
  (OnRemote(c, (ipDestSet(ipSrcSet(#1 p, ipDst(#1 p)), ipSrc(#1 p)), #2 p)); (ps, ss))
)");
  EXPECT_FALSE(r.global_termination);
}

TEST(Analysis, SingleReplyToSourceTerminates) {
  // Reply once on a *different* channel that only delivers: no cycle.
  AnalysisReport r = run(R"(
channel sink(ps : unit, ss : unit, p : ip*blob) is (deliver(p); (ps, ss))
channel c(ps : unit, ss : unit, p : ip*blob) is
  (OnRemote(sink, (ipDestSet(#1 p, ipSrc(#1 p)), #2 p)); (ps, ss))
)");
  EXPECT_TRUE(r.global_termination) << r.global_termination_detail;
}

TEST(Analysis, UnknownDestinationInCycleIsRejected) {
  AnalysisReport r = run(R"(
val mirror : host = 10.0.0.9
fun pick(a : host, b : host, n : int) : host = if n % 2 = 0 then a else b
channel c(ps : int, ss : unit, p : ip*blob) is
  (OnRemote(c, (ipDestSet(#1 p, pick(ipSrc(#1 p), mirror, ps)), #2 p)); (ps + 1, ss))
)");
  EXPECT_FALSE(r.global_termination);
}

TEST(Analysis, StateSpaceIsSmallForRealProtocols) {
  // Paper §2.1: the exploration is on the order of r*d*2^d with tiny r and d.
  AnalysisReport r = run(R"(
channel network(ps : unit, ss : unit, p : ip*tcp*blob) is
  if tcpDst(#2 p) = 80 then
    (OnRemote(network, (ipDestSet(#1 p, 131.254.60.81), #2 p, #3 p)); (ps, ss))
  else (OnRemote(network, p); (ps, ss))
)");
  EXPECT_LE(r.states_explored, 16);
}

// --- guaranteed delivery -----------------------------------------------------

TEST(Analysis, AllPathsForwardOrDeliverPasses) {
  AnalysisReport r = run(R"(
channel c(ps : unit, ss : unit, p : ip*tcp*blob) is
  if tcpDst(#2 p) = 80 then (OnRemote(c, p); (ps, ss))
  else (deliver(p); (ps, ss))
)");
  EXPECT_TRUE(r.guaranteed_delivery) << r.delivery_detail;
}

TEST(Analysis, PathWithoutSendFailsDelivery) {
  AnalysisReport r = run(R"(
channel c(ps : unit, ss : unit, p : ip*tcp*blob) is
  if tcpDst(#2 p) = 80 then (deliver(p); (ps, ss))
  else (ps, ss)
)");
  EXPECT_FALSE(r.guaranteed_delivery);
  EXPECT_NE(r.delivery_detail.find("drops"), std::string::npos);
}

TEST(Analysis, ExplicitDropFailsDelivery) {
  AnalysisReport r = run(
      "channel c(ps : unit, ss : unit, p : ip*blob) is (drop(); (ps, ss))");
  EXPECT_FALSE(r.guaranteed_delivery);
}

TEST(Analysis, UnhandledExceptionFailsDelivery) {
  AnalysisReport r = run(R"(
channel c(ps : unit, ss : (int, int) hash_table, p : ip*blob)
initstate mkTable(4) is
  (println(tableGet(ss, blobLen(#2 p))); (deliver(p); (ps, ss)))
)");
  EXPECT_FALSE(r.guaranteed_delivery);
  EXPECT_NE(r.delivery_detail.find("exception"), std::string::npos);
}

TEST(Analysis, HandledExceptionPassesDelivery) {
  AnalysisReport r = run(R"(
channel c(ps : unit, ss : (int, int) hash_table, p : ip*blob)
initstate mkTable(4) is
  (println(try tableGet(ss, blobLen(#2 p)) with 0); (deliver(p); (ps, ss)))
)");
  EXPECT_TRUE(r.guaranteed_delivery) << r.delivery_detail;
}

TEST(Analysis, DivisionByNonConstantMayRaise) {
  AnalysisReport r = run(
      "channel c(ps : int, ss : unit, p : ip*blob) is\n"
      "  (deliver(p); (blobLen(#2 p) / ps, ss))");
  EXPECT_FALSE(r.guaranteed_delivery);
  // Constant divisor is fine:
  AnalysisReport r2 = run(
      "channel c(ps : int, ss : unit, p : ip*blob) is\n"
      "  (deliver(p); (ps / 2, ss))");
  EXPECT_TRUE(r2.guaranteed_delivery) << r2.delivery_detail;
}

TEST(Analysis, HandlerOnlyDeliversIfBothSidesDo) {
  // Protected part may raise before sending; the handler must send too.
  AnalysisReport good = run(R"(
channel c(ps : unit, ss : (int, int) hash_table, p : ip*blob)
initstate mkTable(4) is
  (try (println(tableGet(ss, 1)); deliver(p)) with deliver(p); (ps, ss))
)");
  EXPECT_TRUE(good.guaranteed_delivery) << good.delivery_detail;

  AnalysisReport bad = run(R"(
channel c(ps : unit, ss : (int, int) hash_table, p : ip*blob)
initstate mkTable(4) is
  (try (println(tableGet(ss, 1)); deliver(p)) with println(0); (ps, ss))
)");
  EXPECT_FALSE(bad.guaranteed_delivery);
}

// --- linear duplication ------------------------------------------------------

TEST(Analysis, SingleSendPerPathIsLinear) {
  AnalysisReport r = run(
      "channel c(ps : unit, ss : unit, p : ip*blob) is (OnRemote(c, p); (ps, ss))");
  EXPECT_TRUE(r.linear_duplication) << r.duplication_detail;
}

TEST(Analysis, DuplicationIntoDeadEndIsLinear) {
  // Two sends per path, but the target never re-emits: a bounded tree.
  AnalysisReport r = run(R"(
channel sink(ps : unit, ss : unit, p : ip*blob) is (deliver(p); (ps, ss))
channel c(ps : unit, ss : unit, p : ip*blob) is
  (OnRemote(sink, p); OnRemote(sink, p); (ps, ss))
)");
  EXPECT_TRUE(r.linear_duplication) << r.duplication_detail;
}

TEST(Analysis, SelfDuplicationIsExponentialAndRejected) {
  AnalysisReport r = run(R"(
channel c(ps : unit, ss : unit, p : ip*blob) is
  (OnRemote(c, p); OnRemote(c, p); (ps, ss))
)");
  EXPECT_FALSE(r.linear_duplication);
  EXPECT_NE(r.duplication_detail.find("duplicates"), std::string::npos);
}

TEST(Analysis, DuplicationThroughACycleIsRejected) {
  AnalysisReport r = run(R"(
channel a(ps : unit, ss : unit, p : ip*blob) is
  (OnRemote(b, p); OnRemote(b, p); (ps, ss))
channel b(ps : unit, ss : unit, p : ip*blob) is (OnRemote(a, p); (ps, ss))
)");
  EXPECT_FALSE(r.linear_duplication);
}

TEST(Analysis, BranchesDoNotSumSends) {
  // One send per branch: max over branches is 1 -> linear, even in a cycle.
  AnalysisReport r = run(R"(
channel c(ps : unit, ss : unit, p : ip*tcp*blob) is
  if tcpDst(#2 p) = 80 then (OnRemote(c, p); (ps, ss))
  else (OnRemote(c, p); (ps, ss))
)");
  EXPECT_TRUE(r.linear_duplication) << r.duplication_detail;
}

TEST(Analysis, FixpointIterationCountReported) {
  AnalysisReport r = run(R"(
channel a(ps : unit, ss : unit, p : ip*blob) is (OnRemote(b, p); (ps, ss))
channel b(ps : unit, ss : unit, p : ip*blob) is (OnRemote(a, p); (ps, ss))
)");
  EXPECT_GE(r.fixpoint_iterations, 1);
}

// --- the verification gate ----------------------------------------------------

TEST(Verification, GateAcceptsSafeProtocol) {
  auto proto = Protocol::compile(
      "channel c(ps : unit, ss : unit, p : ip*blob) is (deliver(p); (ps, ss))");
  EXPECT_TRUE(proto->report().accepted());
}

TEST(Verification, GateRejectsNonTerminatingProtocol) {
  EXPECT_THROW(Protocol::compile(R"(
channel c(ps : unit, ss : unit, p : ip*blob) is
  if ipDst(#1 p) = 10.0.0.1 then
    (OnRemote(c, (ipDestSet(#1 p, 10.0.0.2), #2 p)); (ps, ss))
  else
    (OnRemote(c, (ipDestSet(#1 p, 10.0.0.1), #2 p)); (ps, ss))
)"),
               VerificationError);
}

TEST(Verification, PrivilegedLoadBypassesGate) {
  Protocol::Options opts;
  opts.require_verified = false;
  auto proto = Protocol::compile(R"(
channel c(ps : unit, ss : unit, p : ip*blob) is
  (OnRemote(c, p); OnRemote(c, p); (ps, ss))
)",
                                 opts);
  EXPECT_FALSE(proto->report().accepted());
  EXPECT_FALSE(proto->report().linear_duplication);
}

TEST(Verification, DeliveryIsAdvisoryNotBlocking) {
  auto proto = Protocol::compile(
      "channel c(ps : unit, ss : unit, p : ip*blob) is (drop(); (ps, ss))");
  EXPECT_TRUE(proto->report().accepted());
  EXPECT_FALSE(proto->report().fully_verified());
}

}  // namespace
}  // namespace asp::planp
