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

TEST(Value, UnhashableKindsThrowEvalBug) {
  // The parser rejects a hash_table whose key type fails is_key_type, so no
  // program hashes one of these kinds.
  EXPECT_THROW(Value::of_ip({}).hash(), EvalBug);
  EXPECT_THROW(Value::of_blob({1, 2, 3}).hash(), EvalBug);
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

TEST(HashTableUnit, CollisionsAndOverwrite) {
  HashTable t(2);  // tiny bucket hint: lots of collisions
  for (int i = 0; i < 100; ++i) t.set(Value::of_int(i), Value::of_int(i * 2));
  EXPECT_EQ(t.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    const Value* v = t.get(Value::of_int(i));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->as_int(), i * 2);
  }
  t.set(Value::of_int(5), Value::of_string("replaced"));
  EXPECT_EQ(t.get(Value::of_int(5))->as_string(), "replaced");
  EXPECT_EQ(t.size(), 100u);
  EXPECT_TRUE(t.remove(Value::of_int(5)));
  EXPECT_FALSE(t.remove(Value::of_int(5)));
  EXPECT_EQ(t.get(Value::of_int(5)), nullptr);
  EXPECT_EQ(t.size(), 99u);
}

}  // namespace
}  // namespace asp::planp
