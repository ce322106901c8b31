#ifndef COSMOS_EXPR_EXPRESSION_H_
#define COSMOS_EXPR_EXPRESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "stream/value.h"

namespace cosmos {

// Immutable expression trees for WHERE clauses and CBN filter predicates.
// Nodes are shared via shared_ptr<const Expr>; construction goes through the
// factory helpers at the bottom of this header.

enum class ExprKind {
  kLiteral,     // constant Value
  kColumnRef,   // [qualifier.]name
  kComparison,  // lhs op rhs
  kLogical,     // AND / OR / NOT
  kArithmetic,  // + - * /
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicalOp { kAnd, kOr, kNot };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

const char* CompareOpToString(CompareOp op);
// Mirror of a comparison when operands swap sides (a < b  <=>  b > a).
CompareOp FlipCompareOp(CompareOp op);

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  virtual ~Expr() = default;
  virtual ExprKind kind() const = 0;
  virtual std::string ToString() const = 0;

  // Structural equality.
  virtual bool Equals(const Expr& other) const = 0;
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}
  ExprKind kind() const override { return ExprKind::kLiteral; }
  const Value& value() const { return value_; }
  std::string ToString() const override { return value_.ToString(); }
  bool Equals(const Expr& other) const override;

 private:
  Value value_;
};

class ColumnRefExpr final : public Expr {
 public:
  ColumnRefExpr(std::string qualifier, std::string name)
      : qualifier_(std::move(qualifier)), name_(std::move(name)) {}
  ExprKind kind() const override { return ExprKind::kColumnRef; }
  // Table alias or stream name; empty when unqualified.
  const std::string& qualifier() const { return qualifier_; }
  const std::string& name() const { return name_; }
  // "qualifier.name" or just "name".
  std::string FullName() const;
  std::string ToString() const override { return FullName(); }
  bool Equals(const Expr& other) const override;

 private:
  std::string qualifier_;
  std::string name_;
};

class ComparisonExpr final : public Expr {
 public:
  ComparisonExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  ExprKind kind() const override { return ExprKind::kComparison; }
  CompareOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }
  std::string ToString() const override;
  bool Equals(const Expr& other) const override;

 private:
  CompareOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class LogicalExpr final : public Expr {
 public:
  LogicalExpr(LogicalOp op, std::vector<ExprPtr> children)
      : op_(op), children_(std::move(children)) {}
  ExprKind kind() const override { return ExprKind::kLogical; }
  LogicalOp op() const { return op_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  std::string ToString() const override;
  bool Equals(const Expr& other) const override;

 private:
  LogicalOp op_;
  std::vector<ExprPtr> children_;
};

class ArithmeticExpr final : public Expr {
 public:
  ArithmeticExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  ExprKind kind() const override { return ExprKind::kArithmetic; }
  ArithOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }
  std::string ToString() const override;
  bool Equals(const Expr& other) const override;

 private:
  ArithOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

// ---- Factory helpers ----

ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumn(std::string qualifier, std::string name);
ExprPtr MakeColumn(std::string name);  // unqualified
ExprPtr MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeAnd(std::vector<ExprPtr> children);  // flattens nested ANDs
ExprPtr MakeOr(std::vector<ExprPtr> children);   // flattens nested ORs
ExprPtr MakeNot(ExprPtr child);
ExprPtr MakeArith(ArithOp op, ExprPtr lhs, ExprPtr rhs);

// Conjoins two possibly-null predicates; null means "true".
ExprPtr ConjoinNullable(ExprPtr a, ExprPtr b);

// Collects the column references appearing in `expr`, left to right,
// repeats included.
void CollectColumns(const ExprPtr& expr,
                    std::vector<const ColumnRefExpr*>* out);

// Rebuilds `expr` with each column reference requalified as
// `qualifier(column)`, visiting columns in CollectColumns' order; a column
// whose qualifier comes back unchanged is kept as is. Null stays null.
ExprPtr RewriteColumns(
    const ExprPtr& expr,
    const std::function<std::string(const ColumnRefExpr&)>& qualifier);

}  // namespace cosmos

#endif  // COSMOS_EXPR_EXPRESSION_H_
