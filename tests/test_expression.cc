#include <gtest/gtest.h>

#include "expr/evaluator.h"
#include "expr/expression.h"

namespace cosmos {
namespace {

std::shared_ptr<const Schema> TestSchema() {
  return std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{
               {"a", ValueType::kInt64, 0, 100},
               {"b", ValueType::kDouble, -10, 10},
               {"name", ValueType::kString},
           });
}

Tuple MakeTuple(int64_t a, double b, const std::string& name,
                Timestamp ts = 0) {
  return Tuple(TestSchema(), {Value(a), Value(b), Value(name)}, ts);
}

TEST(Expression, LiteralEval) {
  auto t = MakeTuple(1, 2.0, "x");
  auto v = EvalExpr(MakeLiteral(Value(int64_t{5})), t);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt64(), 5);
}

TEST(Expression, ColumnEval) {
  auto t = MakeTuple(7, 2.5, "x");
  auto v = EvalExpr(MakeColumn("b"), t);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->AsDouble(), 2.5);
  EXPECT_FALSE(EvalExpr(MakeColumn("zzz"), t).ok());
}

TEST(Expression, QualifiedColumnResolvesThroughStreamName) {
  auto t = MakeTuple(7, 2.5, "x");
  auto v = EvalExpr(MakeColumn("S", "a"), t);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt64(), 7);
  EXPECT_FALSE(EvalExpr(MakeColumn("T", "a"), t).ok());
}

TEST(Expression, ComparisonOps) {
  auto t = MakeTuple(5, 1.0, "x");
  auto col = MakeColumn("a");
  auto lit = MakeLiteral(Value(int64_t{5}));
  struct Case {
    CompareOp op;
    bool expected;
  } cases[] = {
      {CompareOp::kEq, true}, {CompareOp::kNe, false},
      {CompareOp::kLt, false}, {CompareOp::kLe, true},
      {CompareOp::kGt, false}, {CompareOp::kGe, true},
  };
  for (const auto& c : cases) {
    auto r = EvalPredicate(MakeCompare(c.op, col, lit), t);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, c.expected) << CompareOpToString(c.op);
  }
}

TEST(Expression, MixedNumericComparison) {
  auto t = MakeTuple(5, 4.5, "x");
  auto r = EvalPredicate(
      MakeCompare(CompareOp::kGt, MakeColumn("a"), MakeColumn("b")), t);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST(Expression, EqualityToleratesTypeMismatch) {
  auto t = MakeTuple(5, 1.0, "x");
  auto r = EvalPredicate(MakeCompare(CompareOp::kEq, MakeColumn("name"),
                                     MakeLiteral(Value(int64_t{5}))),
                         t);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  r = EvalPredicate(MakeCompare(CompareOp::kNe, MakeColumn("name"),
                                MakeLiteral(Value(int64_t{5}))),
                    t);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST(Expression, OrderedStringComparisonErrors) {
  auto t = MakeTuple(5, 1.0, "x");
  auto r = EvalPredicate(MakeCompare(CompareOp::kLt, MakeColumn("name"),
                                     MakeLiteral(Value(int64_t{5}))),
                         t);
  EXPECT_FALSE(r.ok());
}

TEST(Expression, LogicalShortCircuitSemantics) {
  auto t = MakeTuple(5, 1.0, "x");
  auto true_cmp = MakeCompare(CompareOp::kEq, MakeColumn("a"),
                              MakeLiteral(Value(int64_t{5})));
  auto false_cmp = MakeCompare(CompareOp::kEq, MakeColumn("a"),
                               MakeLiteral(Value(int64_t{6})));
  EXPECT_TRUE(*EvalPredicate(MakeAnd({true_cmp, true_cmp}), t));
  EXPECT_FALSE(*EvalPredicate(MakeAnd({true_cmp, false_cmp}), t));
  EXPECT_TRUE(*EvalPredicate(MakeOr({false_cmp, true_cmp}), t));
  EXPECT_FALSE(*EvalPredicate(MakeOr({false_cmp, false_cmp}), t));
  EXPECT_FALSE(*EvalPredicate(MakeNot(true_cmp), t));
  EXPECT_TRUE(*EvalPredicate(MakeNot(false_cmp), t));
}

TEST(Expression, ArithmeticInt64PreservesIntegers) {
  auto t = MakeTuple(10, 1.0, "x");
  auto v = EvalExpr(MakeArith(ArithOp::kSub, MakeColumn("a"),
                              MakeLiteral(Value(int64_t{3}))),
                    t);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->type(), ValueType::kInt64);
  EXPECT_EQ(v->AsInt64(), 7);
}

TEST(Expression, ArithmeticMixedWidensToDouble) {
  auto t = MakeTuple(10, 0.5, "x");
  auto v = EvalExpr(MakeArith(ArithOp::kMul, MakeColumn("a"),
                              MakeColumn("b")),
                    t);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v->AsDouble(), 5.0);
}

TEST(Expression, DivisionByZeroErrors) {
  auto t = MakeTuple(10, 0.0, "x");
  EXPECT_FALSE(EvalExpr(MakeArith(ArithOp::kDiv, MakeColumn("a"),
                                  MakeLiteral(Value(int64_t{0}))),
                        t)
                   .ok());
  EXPECT_FALSE(
      EvalExpr(MakeArith(ArithOp::kDiv, MakeColumn("a"), MakeColumn("b")), t)
          .ok());
}

TEST(Expression, ArithmeticOnStringErrors) {
  auto t = MakeTuple(10, 1.0, "x");
  EXPECT_FALSE(EvalExpr(MakeArith(ArithOp::kAdd, MakeColumn("name"),
                                  MakeLiteral(Value(int64_t{1}))),
                        t)
                   .ok());
}

TEST(Expression, NullPredicateIsTrue) {
  auto t = MakeTuple(1, 1.0, "x");
  auto r = EvalPredicate(nullptr, t);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST(Expression, MakeAndFlattens) {
  auto a = MakeCompare(CompareOp::kEq, MakeColumn("a"),
                       MakeLiteral(Value(int64_t{1})));
  auto inner = MakeAnd({a, a});
  auto outer = MakeAnd({inner, a});
  ASSERT_EQ(outer->kind(), ExprKind::kLogical);
  EXPECT_EQ(static_cast<const LogicalExpr&>(*outer).children().size(), 3u);
}

TEST(Expression, MakeAndSingleChildCollapses) {
  auto a = MakeCompare(CompareOp::kEq, MakeColumn("a"),
                       MakeLiteral(Value(int64_t{1})));
  EXPECT_EQ(MakeAnd({a}).get(), a.get());
}

TEST(Expression, ConjoinNullable) {
  auto a = MakeCompare(CompareOp::kEq, MakeColumn("a"),
                       MakeLiteral(Value(int64_t{1})));
  EXPECT_EQ(ConjoinNullable(nullptr, a).get(), a.get());
  EXPECT_EQ(ConjoinNullable(a, nullptr).get(), a.get());
  auto both = ConjoinNullable(a, a);
  EXPECT_EQ(both->kind(), ExprKind::kLogical);
}

TEST(Expression, StructuralEquality) {
  auto e1 = MakeCompare(CompareOp::kLt, MakeColumn("O", "ts"),
                        MakeLiteral(Value(int64_t{5})));
  auto e2 = MakeCompare(CompareOp::kLt, MakeColumn("O", "ts"),
                        MakeLiteral(Value(int64_t{5})));
  auto e3 = MakeCompare(CompareOp::kLe, MakeColumn("O", "ts"),
                        MakeLiteral(Value(int64_t{5})));
  EXPECT_TRUE(e1->Equals(*e2));
  EXPECT_FALSE(e1->Equals(*e3));
}

TEST(Expression, CollectColumnsFindsAll) {
  auto e = MakeAnd(
      {MakeCompare(CompareOp::kEq, MakeColumn("O", "id"),
                   MakeColumn("C", "id")),
       MakeCompare(CompareOp::kGt,
                   MakeArith(ArithOp::kSub, MakeColumn("O", "ts"),
                             MakeColumn("C", "ts")),
                   MakeLiteral(Value(int64_t{0})))});
  std::vector<const ColumnRefExpr*> cols;
  CollectColumns(e, &cols);
  EXPECT_EQ(cols.size(), 4u);
}

TEST(Expression, RewriteColumnsRequalifiesColumns) {
  auto to_s = [](const ColumnRefExpr&) { return std::string("S"); };
  auto col = RewriteColumns(MakeColumn("O", "id"), to_s);
  EXPECT_TRUE(col->Equals(*MakeColumn("S", "id")));
  auto unqualified = [](const ColumnRefExpr&) { return std::string(); };
  auto bare = RewriteColumns(MakeColumn("O", "id"), unqualified);
  EXPECT_TRUE(bare->Equals(*MakeColumn("id")));
  EXPECT_EQ(RewriteColumns(nullptr, to_s), nullptr);
}

TEST(Expression, RewriteColumnsKeepsLiteralsAndUnchangedColumns) {
  auto literal = MakeLiteral(Value(int64_t{3}));
  auto to_s = [](const ColumnRefExpr&) { return std::string("S"); };
  EXPECT_EQ(RewriteColumns(literal, to_s).get(), literal.get());
  // A callback that returns the column's own qualifier keeps the node.
  auto same = [](const ColumnRefExpr& c) { return c.qualifier(); };
  auto col = MakeColumn("O", "id");
  EXPECT_EQ(RewriteColumns(col, same).get(), col.get());
  auto bare = MakeColumn("id");
  EXPECT_EQ(RewriteColumns(bare, same).get(), bare.get());
}

TEST(Expression, RewriteColumnsWalksEveryNodeKind) {
  // (O.ts - C.ts) <= 0 AND NOT (O.id = 5 OR C.id != O.id)
  auto e = MakeAnd(
      {MakeCompare(CompareOp::kLe,
                   MakeArith(ArithOp::kSub, MakeColumn("O", "ts"),
                             MakeColumn("C", "ts")),
                   MakeLiteral(Value(int64_t{0}))),
       MakeNot(MakeOr(
           {MakeCompare(CompareOp::kEq, MakeColumn("O", "id"),
                        MakeLiteral(Value(int64_t{5}))),
            MakeCompare(CompareOp::kNe, MakeColumn("C", "id"),
                        MakeColumn("O", "id"))}))});
  // Rename O to X and leave every other qualifier alone, recording the
  // order the columns are visited in.
  std::vector<std::string> visited;
  auto rewritten = RewriteColumns(e, [&visited](const ColumnRefExpr& c) {
    visited.push_back(c.FullName());
    return c.qualifier() == "O" ? std::string("X") : c.qualifier();
  });
  auto want = MakeAnd(
      {MakeCompare(CompareOp::kLe,
                   MakeArith(ArithOp::kSub, MakeColumn("X", "ts"),
                             MakeColumn("C", "ts")),
                   MakeLiteral(Value(int64_t{0}))),
       MakeNot(MakeOr(
           {MakeCompare(CompareOp::kEq, MakeColumn("X", "id"),
                        MakeLiteral(Value(int64_t{5}))),
            MakeCompare(CompareOp::kNe, MakeColumn("C", "id"),
                        MakeColumn("X", "id"))}))});
  EXPECT_TRUE(rewritten->Equals(*want)) << rewritten->ToString();
  // The input is immutable and left as it was.
  EXPECT_EQ(e->ToString(),
            "((O.ts - C.ts) <= 0 AND NOT ((O.id = 5 OR C.id != O.id)))");
  // Columns are visited in CollectColumns' order.
  std::vector<const ColumnRefExpr*> cols;
  CollectColumns(e, &cols);
  ASSERT_EQ(visited.size(), cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    EXPECT_EQ(visited[i], cols[i]->FullName());
  }
}

TEST(Expression, ToStringReadable) {
  auto e = MakeCompare(CompareOp::kGe, MakeColumn("O", "price"),
                       MakeLiteral(Value(10.0)));
  EXPECT_EQ(e->ToString(), "O.price >= 10");
}

TEST(BoundPredicate, MatchesSameAsTreeWalk) {
  auto schema = TestSchema();
  auto e = MakeAnd({MakeCompare(CompareOp::kGe, MakeColumn("a"),
                                MakeLiteral(Value(int64_t{3}))),
                    MakeCompare(CompareOp::kLt, MakeColumn("b"),
                                MakeLiteral(Value(5.0)))});
  auto bound = BoundPredicate::Bind(e, *schema);
  ASSERT_TRUE(bound.ok());
  for (int a = 0; a < 8; ++a) {
    for (double b = -8; b < 8; b += 1.5) {
      Tuple t = MakeTuple(a, b, "x");
      auto walked = EvalPredicate(e, t);
      ASSERT_TRUE(walked.ok());
      EXPECT_EQ(bound->Matches(t), *walked) << a << " " << b;
    }
  }
}

TEST(BoundPredicate, BindFailsOnUnknownColumn) {
  auto schema = TestSchema();
  auto e = MakeCompare(CompareOp::kEq, MakeColumn("missing"),
                       MakeLiteral(Value(int64_t{1})));
  EXPECT_FALSE(BoundPredicate::Bind(e, *schema).ok());
}

TEST(BoundPredicate, NullExprAlwaysMatches) {
  auto schema = TestSchema();
  auto bound = BoundPredicate::Bind(nullptr, *schema);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->Matches(MakeTuple(1, 1.0, "x")));
}

TEST(BoundPredicate, TypeErrorMeansNoMatch) {
  auto schema = TestSchema();
  // name < 5 is a type error: bound evaluation reports no match.
  auto e = MakeCompare(CompareOp::kLt, MakeColumn("name"),
                       MakeLiteral(Value(int64_t{5})));
  auto bound = BoundPredicate::Bind(e, *schema);
  ASSERT_TRUE(bound.ok());
  EXPECT_FALSE(bound->Matches(MakeTuple(1, 1.0, "x")));
}

TEST(FlipCompareOp, MirrorsOperands) {
  EXPECT_EQ(FlipCompareOp(CompareOp::kLt), CompareOp::kGt);
  EXPECT_EQ(FlipCompareOp(CompareOp::kLe), CompareOp::kGe);
  EXPECT_EQ(FlipCompareOp(CompareOp::kGt), CompareOp::kLt);
  EXPECT_EQ(FlipCompareOp(CompareOp::kGe), CompareOp::kLe);
  EXPECT_EQ(FlipCompareOp(CompareOp::kEq), CompareOp::kEq);
  EXPECT_EQ(FlipCompareOp(CompareOp::kNe), CompareOp::kNe);
}

}  // namespace
}  // namespace cosmos
