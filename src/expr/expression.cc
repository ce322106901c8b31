#include "expr/expression.h"

namespace cosmos {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

CompareOp FlipCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kEq;
    case CompareOp::kNe:
      return CompareOp::kNe;
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
  }
  return op;
}

bool LiteralExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kLiteral) return false;
  return value_ == static_cast<const LiteralExpr&>(other).value_;
}

std::string ColumnRefExpr::FullName() const {
  if (qualifier_.empty()) return name_;
  return qualifier_ + "." + name_;
}

bool ColumnRefExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kColumnRef) return false;
  const auto& o = static_cast<const ColumnRefExpr&>(other);
  return qualifier_ == o.qualifier_ && name_ == o.name_;
}

std::string ComparisonExpr::ToString() const {
  return lhs_->ToString() + " " + CompareOpToString(op_) + " " +
         rhs_->ToString();
}

bool ComparisonExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kComparison) return false;
  const auto& o = static_cast<const ComparisonExpr&>(other);
  return op_ == o.op_ && lhs_->Equals(*o.lhs_) && rhs_->Equals(*o.rhs_);
}

std::string LogicalExpr::ToString() const {
  if (op_ == LogicalOp::kNot) {
    return "NOT (" + children_[0]->ToString() + ")";
  }
  const char* sep = (op_ == LogicalOp::kAnd) ? " AND " : " OR ";
  std::string out = "(";
  for (size_t i = 0; i < children_.size(); ++i) {
    if (i > 0) out += sep;
    out += children_[i]->ToString();
  }
  out += ")";
  return out;
}

bool LogicalExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kLogical) return false;
  const auto& o = static_cast<const LogicalExpr&>(other);
  if (op_ != o.op_ || children_.size() != o.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*o.children_[i])) return false;
  }
  return true;
}

std::string ArithmeticExpr::ToString() const {
  const char* op = "?";
  switch (op_) {
    case ArithOp::kAdd:
      op = "+";
      break;
    case ArithOp::kSub:
      op = "-";
      break;
    case ArithOp::kMul:
      op = "*";
      break;
    case ArithOp::kDiv:
      op = "/";
      break;
  }
  // Appended piecewise: GCC 12's -Wrestrict misfires on the chained
  // operator+ form of this expression at -O3.
  std::string out = "(";
  out += lhs_->ToString();
  out += ' ';
  out += op;
  out += ' ';
  out += rhs_->ToString();
  out += ')';
  return out;
}

bool ArithmeticExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kArithmetic) return false;
  const auto& o = static_cast<const ArithmeticExpr&>(other);
  return op_ == o.op_ && lhs_->Equals(*o.lhs_) && rhs_->Equals(*o.rhs_);
}

ExprPtr MakeLiteral(Value v) {
  return std::make_shared<LiteralExpr>(std::move(v));
}

ExprPtr MakeColumn(std::string qualifier, std::string name) {
  return std::make_shared<ColumnRefExpr>(std::move(qualifier),
                                         std::move(name));
}

ExprPtr MakeColumn(std::string name) {
  return std::make_shared<ColumnRefExpr>("", std::move(name));
}

ExprPtr MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ComparisonExpr>(op, std::move(lhs), std::move(rhs));
}

namespace {

ExprPtr MakeLogicalFlattened(LogicalOp op, std::vector<ExprPtr> children) {
  std::vector<ExprPtr> flat;
  for (auto& c : children) {
    if (c == nullptr) continue;
    if (c->kind() == ExprKind::kLogical &&
        static_cast<const LogicalExpr&>(*c).op() == op) {
      const auto& nested = static_cast<const LogicalExpr&>(*c).children();
      flat.insert(flat.end(), nested.begin(), nested.end());
    } else {
      flat.push_back(std::move(c));
    }
  }
  if (flat.size() == 1) return flat[0];
  return std::make_shared<LogicalExpr>(op, std::move(flat));
}

}  // namespace

ExprPtr MakeAnd(std::vector<ExprPtr> children) {
  return MakeLogicalFlattened(LogicalOp::kAnd, std::move(children));
}

ExprPtr MakeOr(std::vector<ExprPtr> children) {
  return MakeLogicalFlattened(LogicalOp::kOr, std::move(children));
}

ExprPtr MakeNot(ExprPtr child) {
  return std::make_shared<LogicalExpr>(LogicalOp::kNot,
                                       std::vector<ExprPtr>{std::move(child)});
}

ExprPtr MakeArith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ArithmeticExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr ConjoinNullable(ExprPtr a, ExprPtr b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  return MakeAnd({std::move(a), std::move(b)});
}

void CollectColumns(const ExprPtr& expr,
                    std::vector<const ColumnRefExpr*>* out) {
  if (expr == nullptr) return;
  switch (expr->kind()) {
    case ExprKind::kLiteral:
      return;
    case ExprKind::kColumnRef:
      out->push_back(static_cast<const ColumnRefExpr*>(expr.get()));
      return;
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(*expr);
      CollectColumns(c.lhs(), out);
      CollectColumns(c.rhs(), out);
      return;
    }
    case ExprKind::kLogical: {
      const auto& l = static_cast<const LogicalExpr&>(*expr);
      for (const auto& child : l.children()) CollectColumns(child, out);
      return;
    }
    case ExprKind::kArithmetic: {
      const auto& a = static_cast<const ArithmeticExpr&>(*expr);
      CollectColumns(a.lhs(), out);
      CollectColumns(a.rhs(), out);
      return;
    }
  }
}

ExprPtr RewriteColumns(
    const ExprPtr& expr,
    const std::function<std::string(const ColumnRefExpr&)>& qualifier) {
  if (expr == nullptr) return nullptr;
  switch (expr->kind()) {
    case ExprKind::kLiteral:
      return expr;
    case ExprKind::kColumnRef: {
      const auto& col = static_cast<const ColumnRefExpr&>(*expr);
      std::string q = qualifier(col);
      if (q == col.qualifier()) return expr;
      return MakeColumn(std::move(q), col.name());
    }
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(*expr);
      ExprPtr lhs = RewriteColumns(c.lhs(), qualifier);
      return MakeCompare(c.op(), std::move(lhs),
                         RewriteColumns(c.rhs(), qualifier));
    }
    case ExprKind::kLogical: {
      const auto& l = static_cast<const LogicalExpr&>(*expr);
      std::vector<ExprPtr> children;
      for (const auto& child : l.children()) {
        children.push_back(RewriteColumns(child, qualifier));
      }
      if (l.op() == LogicalOp::kNot) return MakeNot(std::move(children[0]));
      return l.op() == LogicalOp::kAnd ? MakeAnd(std::move(children))
                                       : MakeOr(std::move(children));
    }
    case ExprKind::kArithmetic: {
      const auto& a = static_cast<const ArithmeticExpr&>(*expr);
      ExprPtr lhs = RewriteColumns(a.lhs(), qualifier);
      return MakeArith(a.op(), std::move(lhs),
                       RewriteColumns(a.rhs(), qualifier));
    }
  }
  return expr;
}

}  // namespace cosmos
