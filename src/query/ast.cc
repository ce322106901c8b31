#include "query/ast.h"

#include "common/string_util.h"

namespace cosmos {

std::string WindowSpec::ToString() const {
  if (is_now()) return "[Now]";
  if (is_unbounded()) return "[Range Unbounded]";
  if (size % kHour == 0) {
    return StrFormat("[Range %lld Hour]", static_cast<long long>(size / kHour));
  }
  if (size % kMinute == 0) {
    return StrFormat("[Range %lld Minute]",
                     static_cast<long long>(size / kMinute));
  }
  if (size % kSecond == 0) {
    return StrFormat("[Range %lld Second]",
                     static_cast<long long>(size / kSecond));
  }
  return StrFormat("[Range %lld Microsecond]", static_cast<long long>(size));
}

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

std::string SelectItem::ToString() const {
  // Appended piecewise: GCC 12's -Wrestrict misfires on string operator+
  // chains in this function at -O3.
  std::string out;
  auto append_column = [this, &out] {
    if (!qualifier.empty()) {
      out += qualifier;
      out += '.';
    }
    out += name;
  };
  switch (kind) {
    case Kind::kStar:
      out += '*';
      break;
    case Kind::kQualifiedStar:
      out += qualifier;
      out += ".*";
      break;
    case Kind::kColumn:
      append_column();
      break;
    case Kind::kAggregate:
      out += AggFuncToString(func);
      out += '(';
      if (agg_star) {
        out += '*';
      } else {
        append_column();
      }
      out += ')';
      break;
  }
  if (!alias.empty()) {
    out += " AS ";
    out += alias;
  }
  return out;
}

bool SelectItem::operator==(const SelectItem& other) const {
  return kind == other.kind && qualifier == other.qualifier &&
         name == other.name && func == other.func &&
         agg_star == other.agg_star && alias == other.alias;
}

std::string FromItem::ToString() const {
  std::string out = stream + " " + window.ToString();
  if (!alias.empty() && alias != stream) out += " " + alias;
  return out;
}

bool FromItem::operator==(const FromItem& other) const {
  return stream == other.stream && window == other.window &&
         EffectiveAlias() == other.EffectiveAlias();
}

std::string ParsedQuery::ToString() const {
  std::string out = "SELECT ";
  for (size_t i = 0; i < select.size(); ++i) {
    if (i > 0) out += ", ";
    out += select[i].ToString();
  }
  out += " FROM ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i > 0) out += ", ";
    out += from[i].ToString();
  }
  if (where != nullptr) {
    out += " WHERE " + where->ToString();
  }
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i]->ToString();
    }
  }
  return out;
}

}  // namespace cosmos
