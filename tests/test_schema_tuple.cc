#include <gtest/gtest.h>

#include "stream/tuple.h"

namespace cosmos {
namespace {

std::shared_ptr<const Schema> TestSchema() {
  return std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{
               {"a", ValueType::kInt64, 0, 100},
               {"b", ValueType::kDouble, -1.0, 1.0},
               {"name", ValueType::kString},
               {"timestamp", ValueType::kInt64},
           });
}

TEST(Schema, IndexOfFindsAttributes) {
  auto s = TestSchema();
  EXPECT_EQ(s->IndexOf("a"), 0u);
  EXPECT_EQ(s->IndexOf("timestamp"), 3u);
  EXPECT_FALSE(s->IndexOf("missing").has_value());
  EXPECT_TRUE(s->HasAttribute("b"));
  EXPECT_FALSE(s->HasAttribute("B"));  // case sensitive
}

TEST(Schema, FindAttributeReturnsDefOrError) {
  auto s = TestSchema();
  auto def = s->FindAttribute("b");
  ASSERT_TRUE(def.ok());
  EXPECT_EQ(def->type, ValueType::kDouble);
  EXPECT_TRUE(def->has_range);
  EXPECT_DOUBLE_EQ(def->min, -1.0);
  EXPECT_FALSE(s->FindAttribute("zzz").ok());
}

TEST(Schema, EstimatedRowWidth) {
  auto s = TestSchema();
  // a(8) + b(8) + name(4+16) + timestamp(8) = 44
  EXPECT_EQ(s->EstimatedRowWidth(), 44u);
}

TEST(Schema, ToStringListsAttributes) {
  auto s = TestSchema();
  EXPECT_EQ(s->ToString(),
            "S(a:int64, b:double, name:string, timestamp:int64)");
}

TEST(Schema, EqualityByNameAndTypes) {
  auto a = TestSchema();
  auto b = TestSchema();
  EXPECT_TRUE(*a == *b);
  Schema other("T", {{"a", ValueType::kInt64}});
  EXPECT_FALSE(*a == other);
}

TEST(Tuple, ConstructionAndAccess) {
  auto s = TestSchema();
  Tuple t(s, {Value(int64_t{5}), Value(0.5), Value("x"), Value(int64_t{99})},
          99);
  EXPECT_EQ(t.num_values(), 4u);
  EXPECT_EQ(t.timestamp(), 99);
  auto v = t.GetAttribute("b");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->AsDouble(), 0.5);
  EXPECT_FALSE(t.GetAttribute("nope").ok());
}

TEST(Tuple, SerializedSizeSumsValuesPlusTimestamp) {
  auto s = TestSchema();
  Tuple t(s, {Value(int64_t{5}), Value(0.5), Value("xy"), Value(int64_t{9})},
          9);
  // 8 (ts) + 8 + 8 + (4+2) + 8 = 38
  EXPECT_EQ(t.SerializedSize(), 38u);
}

TEST(Tuple, ProjectKeepsTimestampAndOrder) {
  auto s = TestSchema();
  auto proj_schema = std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{{"a", ValueType::kInt64},
                                     {"name", ValueType::kString}});
  Tuple t(s, {Value(int64_t{5}), Value(0.5), Value("x"), Value(int64_t{9})},
          9);
  Tuple p = t.Project({0, 2}, proj_schema);
  EXPECT_EQ(p.num_values(), 2u);
  EXPECT_EQ(p.value(0).AsInt64(), 5);
  EXPECT_EQ(p.value(1).AsString(), "x");
  EXPECT_EQ(p.timestamp(), 9);
}

TEST(Tuple, EqualityIsValueWise) {
  auto s = TestSchema();
  Tuple a(s, {Value(int64_t{1}), Value(0.0), Value("x"), Value(int64_t{2})},
          2);
  Tuple b(s, {Value(int64_t{1}), Value(0.0), Value("x"), Value(int64_t{2})},
          2);
  Tuple c(s, {Value(int64_t{9}), Value(0.0), Value("x"), Value(int64_t{2})},
          2);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(Tuple, MakeJoinedSchemaQualifiesNames) {
  Schema left("L", {{"id", ValueType::kInt64}, {"x", ValueType::kDouble}});
  Schema right("R", {{"id", ValueType::kInt64}, {"y", ValueType::kDouble}});
  // A self-join reads one schema twice under two aliases.
  auto joined =
      MakeJoinedSchema({{&left, "A"}, {&right, "B"}, {&left, "C"}}, "J");
  EXPECT_EQ(joined->stream_name(), "J");
  ASSERT_EQ(joined->num_attributes(), 6u);
  EXPECT_EQ(joined->attribute(0).name, "A.id");
  EXPECT_EQ(joined->attribute(1).name, "A.x");
  EXPECT_EQ(joined->attribute(2).name, "B.id");
  EXPECT_EQ(joined->attribute(3).name, "B.y");
  EXPECT_EQ(joined->attribute(4).name, "C.id");
  EXPECT_EQ(joined->attribute(5).name, "C.x");
  EXPECT_EQ(joined->attribute(3).type, ValueType::kDouble);
  EXPECT_FALSE(joined->HasAttribute("id"));
}

TEST(Tuple, MismatchedValueCountDies) {
  auto s = TestSchema();
  EXPECT_DEATH(Tuple(s, {Value(int64_t{1})}, 0), "CHECK failed");
}

}  // namespace
}  // namespace cosmos
