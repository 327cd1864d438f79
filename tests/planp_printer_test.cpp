// Pretty-printer round trips: print(parse(src)) re-parses to a program that
// prints identically — i.e. printing is a normal form. Checked for every
// shipped ASP and for randomly generated expressions.
#include <gtest/gtest.h>

#include <random>

#include "apps/asp_files.hpp"
#include "planp/parser.hpp"
#include "planp/typecheck.hpp"

namespace asp::planp {
namespace {

void expect_roundtrip_program(const std::string& src) {
  Program p1 = parse(src);
  std::string printed1 = to_string(p1);
  Program p2;
  ASSERT_NO_THROW(p2 = parse(printed1)) << "printer produced unparseable output:\n"
                                        << printed1;
  EXPECT_EQ(to_string(p2), printed1) << "printing is not a normal form for:\n" << src;
  // And it still typechecks to the same interface.
  CheckedProgram c1 = typecheck(parse(src));
  CheckedProgram c2 = typecheck(std::move(p2));
  EXPECT_EQ(c1.channels.size(), c2.channels.size());
  EXPECT_EQ(c1.functions.size(), c2.functions.size());
}

TEST(Printer, AllShippedAspsRoundTrip) {
  for (const apps::AspFile& f : apps::asp_files()) {
    SCOPED_TRACE(f.name);
    expect_roundtrip_program(std::string(f.text));
  }
}

TEST(Printer, EscapesStringsAndChars) {
  Program p = parse(R"(val s : string = "a\nb\"c\\d"
val c : char = '\n')");
  std::string printed = to_string(p);
  Program p2 = parse(printed);
  const auto& v = std::get<ValDef>(p2.decls[0]);
  EXPECT_EQ(v.init->str_val, "a\nb\"c\\d");
  const auto& c = std::get<ValDef>(p2.decls[1]);
  EXPECT_EQ(c.init->char_val, '\n');
}

TEST(Printer, TryBindsTighterThanSurroundingOperators) {
  // A regression trap: `(try a with b) + 1` must not re-parse as
  // `try a with (b + 1)`.
  ExprPtr e = parse_expr("(try 1 with 2) + 1");
  std::string printed = to_string(*e);
  ExprPtr e2 = parse_expr(printed);
  EXPECT_EQ(to_string(*e2), printed);
  EXPECT_EQ(e2->kind, Expr::Kind::kBinOp);  // '+' stays outermost
}

TEST(Printer, RandomExpressionsRoundTrip) {
  std::mt19937 rng(2026);
  // Build nested expressions out of printable pieces and check the normal
  // form property on each.
  std::vector<std::string> pool = {
      "1", "ps", "true", "(1, 2)", "#1 (ps, 2)", "min(ps, 3)",
      "(try raise \"X\" with 0)", "(if ps > 0 then 1 else 2)",
      "(let val q : int = ps in q end)", "-ps", "(ps; 1)",
  };
  for (int round = 0; round < 50; ++round) {
    std::string a = pool[rng() % pool.size()];
    std::string b = pool[rng() % pool.size()];
    const char* ops[] = {" + ", " - ", " * ", " = ", " < "};
    std::string src = "(" + a + ops[rng() % 3] + b + ")";  // arith only: types ok
    ExprPtr e1 = parse_expr(src);
    std::string printed = to_string(*e1);
    ExprPtr e2;
    ASSERT_NO_THROW(e2 = parse_expr(printed)) << printed;
    EXPECT_EQ(to_string(*e2), printed) << src;
  }
}

}  // namespace
}  // namespace asp::planp
