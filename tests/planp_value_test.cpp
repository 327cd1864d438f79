// Value model properties: equality/hash consistency (what the hash tables
// rely on), default values, display forms.
#include <gtest/gtest.h>

#include <functional>

#include "net/network.hpp"
#include "planp/jit.hpp"
#include "planp/parser.hpp"
#include "planp/value.hpp"

namespace asp::planp {
namespace {

std::vector<Value> key_values() {
  return {
      Value::of_int(0),
      Value::of_int(-5),
      Value::of_int(1LL << 40),
      Value::of_bool(true),
      Value::of_bool(false),
      Value::of_char('a'),
      Value::of_char('\0'),
      Value::of_string(""),
      Value::of_string("hello"),
      Value::of_host(asp::net::ip("10.0.0.1")),
      Value::of_host(asp::net::ip("10.0.0.2")),
      Value::of_tuple({Value::of_int(1), Value::of_bool(true)}),
      Value::of_tuple({Value::of_int(1), Value::of_bool(false)}),
      Value::of_tuple({Value::of_host(asp::net::ip("1.1.1.1")), Value::of_int(80)}),
      Value::unit(),
  };
}

TEST(Value, EqualsIsReflexiveAndHashConsistent) {
  for (const Value& v : key_values()) {
    EXPECT_TRUE(v.equals(v)) << v.str();
    EXPECT_EQ(v.hash(), v.hash());
  }
}

TEST(Value, DistinctKeysCompareUnequal) {
  auto vals = key_values();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    for (std::size_t j = 0; j < vals.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(vals[i].equals(vals[j]))
          << vals[i].str() << " vs " << vals[j].str();
    }
  }
}

TEST(Value, StructurallyEqualValuesShareHashes) {
  Value a = Value::of_tuple({Value::of_int(7), Value::of_string("x")});
  Value b = Value::of_tuple({Value::of_int(7), Value::of_string("x")});
  EXPECT_TRUE(a.equals(b));
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(Value, CrossTypeComparisonsAreFalseNotFatal) {
  EXPECT_FALSE(Value::of_int(1).equals(Value::of_bool(true)));
  EXPECT_FALSE(Value::of_char('1').equals(Value::of_int('1')));
  EXPECT_FALSE(Value::unit().equals(Value::of_int(0)));
}

TEST(Value, BlobsCompareByContent) {
  Value a = Value::of_blob({1, 2, 3});
  Value b = Value::of_blob({1, 2, 3});
  Value c = Value::of_blob({1, 2, 4});
  EXPECT_TRUE(a.equals(b));
  EXPECT_FALSE(a.equals(c));
}

TEST(Value, TablesCompareByIdentity) {
  auto t1 = std::make_shared<HashTable>();
  auto t2 = std::make_shared<HashTable>();
  EXPECT_TRUE(Value::of_table(t1).equals(Value::of_table(t1)));
  EXPECT_FALSE(Value::of_table(t1).equals(Value::of_table(t2)));
}

TEST(Value, BlobsHashByContentAndMemoize) {
  Value a = Value::of_blob({1, 2, 3});
  Value b = Value::of_blob({1, 2, 3});
  Value c = Value::of_blob({1, 2, 4});
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_EQ(a.hash(), a.hash());  // cached second call agrees
}

TEST(Value, UnhashableKindsThrowEvalBug) {
  EXPECT_THROW(Value::of_ip({}).hash(), EvalBug);
  EXPECT_THROW(Value::of_table(std::make_shared<HashTable>()).hash(), EvalBug);
}

TEST(Value, AccessorsGuardAgainstWrongKind) {
  EXPECT_THROW(Value::of_int(1).as_bool(), EvalBug);
  EXPECT_THROW(Value::of_bool(true).as_string(), EvalBug);
  EXPECT_THROW(Value::unit().as_tuple(), EvalBug);
}

TEST(Value, DisplayForms) {
  EXPECT_EQ(Value::of_int(-3).str(), "-3");
  EXPECT_EQ(Value::of_bool(true).str(), "true");
  EXPECT_EQ(Value::of_char('z').str(), "z");
  EXPECT_EQ(Value::of_string("s").str(), "s");
  EXPECT_EQ(Value::of_host(asp::net::ip("1.2.3.4")).str(), "1.2.3.4");
  EXPECT_EQ(Value::of_blob({1, 2}).str(), "<blob:2>");
  EXPECT_EQ(Value::of_tuple({Value::of_int(1), Value::of_int(2)}).str(), "(1, 2)");
  EXPECT_EQ(Value::unit().str(), "()");
}

TEST(Value, DefaultValuesMatchTypes) {
  Program p = parse(
      "channel c(ps : int*bool*(host, int) hash_table, ss : unit, p : ip*blob) is "
      "(deliver(p); (ps, ss))");
  const auto& c = std::get<ChannelDef>(p.decls[0]);
  Value d = default_value(c.ps_type);
  const auto& t = d.as_tuple();
  EXPECT_EQ(t[0].as_int(), 0);
  EXPECT_FALSE(t[1].as_bool());
  EXPECT_EQ(t[2].as_table()->size(), 0u);
}

TEST(Value, FreezeLeavesNoWriteForConstReaders) {
  // A compiled program's constants are read by every engine instance at
  // once: after freeze(), as_tuple() has no pair to promote and hash() has
  // no memo to fill, at any depth. Equality and hashes are unchanged.
  auto pair = [](int a, int b) { return Value::of_pair(Value::of_int(a), Value::of_int(b)); };
  auto triple = [] {
    return Value::of_tuple({Value::of_int(5), Value::of_int(6), Value::of_int(7)});
  };
  Value top = pair(1, 2);
  Value nested = Value::of_tuple({pair(3, 4), triple()});
  const Value top_ref = pair(1, 2);
  const Value nested_ref = Value::of_tuple({pair(3, 4), triple()});
  freeze(top);
  freeze(nested);
  EXPECT_TRUE(std::holds_alternative<TupleRep>(top.rep()));
  EXPECT_TRUE(std::holds_alternative<TupleRep>(nested.rep()));
  for (const Value& e : *std::get<TupleRep>(nested.rep())) {
    EXPECT_TRUE(std::holds_alternative<TupleRep>(e.rep())) << e.str();
  }
  EXPECT_TRUE(top.equals(top_ref));
  EXPECT_TRUE(nested.equals(nested_ref));
  EXPECT_EQ(top.hash(), top_ref.hash());
  EXPECT_EQ(nested.hash(), nested_ref.hash());
  EXPECT_EQ(nested.str(), "((3, 4), (5, 6, 7))");
}

TEST(Value, CompiledConstantPoolIsFrozen) {
  // Literal tuples fold into constants, which every engine instance of the
  // program reads at once: the JIT's emitter freezes each one, so no pair is
  // left at any depth for as_tuple() to promote in place.
  CheckedProgram checked = typecheck(parse(R"(
channel network(ps : int, ss : int*int, p : ip*udp*blob) initstate (0, 0) is
  (deliver(p);
   (ps + #2 #1 ((1, 2), 3), if ss = (4, 5) then ss else (6, 7)))
)"));
  JitProgram prog(checked);
  int tuples = 0;
  std::function<void(const Value&)> check = [&](const Value& v) {
    EXPECT_FALSE(std::holds_alternative<ScalarPair>(v.rep())) << v.str();
    if (const TupleRep* t = std::get_if<TupleRep>(&v.rep())) {
      ++tuples;
      for (const Value& e : **t) check(e);
    }
  };
  for (const Value& k : prog.consts) check(k);
  EXPECT_EQ(tuples, 5) << "(0, 0), ((1, 2), 3) holding (1, 2), (4, 5), (6, 7)";
}

TEST(HashTableUnit, CollisionsAndOverwrite) {
  HashTable t(2);  // tiny bucket hint: lots of collisions
  for (int i = 0; i < 100; ++i) t.set(Value::of_int(i), Value::of_int(i * 2));
  EXPECT_EQ(t.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    auto v = t.get(Value::of_int(i));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->as_int(), i * 2);
  }
  t.set(Value::of_int(5), Value::of_string("replaced"));
  EXPECT_EQ(t.get(Value::of_int(5))->as_string(), "replaced");
  EXPECT_EQ(t.size(), 100u);
  EXPECT_TRUE(t.remove(Value::of_int(5)));
  EXPECT_FALSE(t.remove(Value::of_int(5)));
  EXPECT_EQ(t.size(), 99u);
}

}  // namespace
}  // namespace asp::planp
