#include <gtest/gtest.h>

#include "query/parser.h"
#include "spe/operator.h"

namespace cosmos {
namespace {

std::shared_ptr<const Schema> ABSchema() {
  return std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{{"a", ValueType::kInt64},
                                     {"b", ValueType::kDouble}});
}

Tuple MakeTuple(int64_t a, double b, Timestamp ts = 0) {
  return Tuple(ABSchema(), {Value(a), Value(b)}, ts);
}

TEST(SelectOperator, FiltersByPredicate) {
  SelectOperator op(*ParseExpression("a >= 5"));
  std::vector<Tuple> out;
  op.SetSink([&](const Tuple& t) { out.push_back(t); });
  for (int i = 0; i < 10; ++i) op.Push(0, MakeTuple(i, 0.0));
  EXPECT_EQ(out.size(), 5u);
}

TEST(SelectOperator, NullPredicatePassesAll) {
  SelectOperator op(nullptr);
  int n = 0;
  op.SetSink([&](const Tuple&) { ++n; });
  op.Push(0, MakeTuple(1, 1.0));
  op.Push(0, MakeTuple(2, 2.0));
  EXPECT_EQ(n, 2);
}

TEST(SelectOperator, RebindsPerInputSchema) {
  // Same logical predicate evaluated against two physically different
  // schemas (different attribute positions).
  SelectOperator op(*ParseExpression("a >= 5"));
  int n = 0;
  op.SetSink([&](const Tuple&) { ++n; });
  op.Push(0, MakeTuple(7, 0.0));
  auto flipped = std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{{"b", ValueType::kDouble},
                                     {"a", ValueType::kInt64}});
  op.Push(0, Tuple(flipped, {Value(0.0), Value(int64_t{9})}, 0));
  EXPECT_EQ(n, 2);
}

TEST(SelectOperator, UnbindableSchemaDropsTuples) {
  SelectOperator op(*ParseExpression("missing >= 5"));
  int n = 0;
  op.SetSink([&](const Tuple&) { ++n; });
  op.Push(0, MakeTuple(7, 0.0));
  EXPECT_EQ(n, 0);
}

TEST(ProjectOperator, MapsIndexes) {
  auto out_schema = std::make_shared<Schema>(
      "out", std::vector<AttributeDef>{{"renamed", ValueType::kInt64}});
  ProjectOperator op({0}, out_schema);
  std::vector<Tuple> out;
  op.SetSink([&](const Tuple& t) { out.push_back(t); });
  op.Push(0, MakeTuple(9, 1.0, 5));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].schema()->attribute(0).name, "renamed");
  EXPECT_EQ(out[0].value(0).AsInt64(), 9);
}

}  // namespace
}  // namespace cosmos
