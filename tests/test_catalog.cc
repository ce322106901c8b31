#include "stream/catalog.h"

#include <gtest/gtest.h>

namespace cosmos {
namespace {

std::shared_ptr<const Schema> MakeSchema(const std::string& name) {
  return std::make_shared<Schema>(
      name, std::vector<AttributeDef>{{"x", ValueType::kInt64}});
}

TEST(Catalog, RegisterAndLookup) {
  Catalog c;
  ASSERT_TRUE(c.RegisterStream(MakeSchema("S"), 5.0, 3).ok());
  EXPECT_TRUE(c.HasStream("S"));
  auto info = c.Lookup("S");
  ASSERT_TRUE(info.ok());
  EXPECT_DOUBLE_EQ(info->rate_tuples_per_sec, 5.0);
  EXPECT_EQ(info->publisher_node, 3);
  EXPECT_EQ(c.num_streams(), 1u);
}

TEST(Catalog, DuplicateRegistrationFails) {
  Catalog c;
  ASSERT_TRUE(c.RegisterStream(MakeSchema("S")).ok());
  Status s = c.RegisterStream(MakeSchema("S"));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST(Catalog, NullSchemaRejected) {
  Catalog c;
  EXPECT_EQ(c.RegisterStream(nullptr).code(), StatusCode::kInvalidArgument);
}

TEST(Catalog, LookupMissingFails) {
  Catalog c;
  EXPECT_EQ(c.Lookup("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(c.LookupSchema("nope").status().code(), StatusCode::kNotFound);
}

TEST(Catalog, UpdateRate) {
  Catalog c;
  ASSERT_TRUE(c.RegisterStream(MakeSchema("S"), 1.0).ok());
  ASSERT_TRUE(c.UpdateRate("S", 9.0).ok());
  EXPECT_DOUBLE_EQ(c.Lookup("S")->rate_tuples_per_sec, 9.0);
  EXPECT_EQ(c.UpdateRate("T", 1.0).code(), StatusCode::kNotFound);
}

TEST(Catalog, StreamNamesSorted) {
  Catalog c;
  (void)c.RegisterStream(MakeSchema("b"));
  (void)c.RegisterStream(MakeSchema("a"));
  auto names = c.StreamNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // map ordering
  EXPECT_EQ(names[1], "b");
}

}  // namespace
}  // namespace cosmos
