#ifndef COSMOS_CBN_FILTER_H_
#define COSMOS_CBN_FILTER_H_

#include <string>
#include <vector>

#include "cbn/datagram.h"
#include "expr/conjunct.h"

namespace cosmos {

// A datagram filter (paper §3.1): defined on exactly one stream, applicable
// only to that stream, and a conjunction of constraints on its attributes.
// The canonical constraints live in `clause`; clause residuals (e.g. the
// window re-tightening predicate "O.timestamp - C.timestamp <= 0") are
// evaluated as expressions.
class Filter {
 public:
  Filter() = default;
  Filter(std::string stream, ConjunctiveClause clause)
      : stream_(std::move(stream)), clause_(std::move(clause)) {}

  const std::string& stream() const { return stream_; }
  const ConjunctiveClause& clause() const { return clause_; }

  // True when the clause carries residual conjuncts — the part the
  // compiled matcher must hand back to the interpreted Evaluator.
  bool has_residual() const { return clause_.has_residual(); }

  // "A datagram is said to be covered by a filter if the datagram is from
  // the data stream of the filter and satisfies all the constraints."
  bool Covers(const Datagram& d) const;

  // Attributes referenced by the constraints and residual (needed upstream
  // so that early projection never drops an attribute a downstream filter
  // still has to evaluate).
  std::vector<std::string> ReferencedAttributes() const;

  std::string ToString() const;

  bool operator==(const Filter& other) const {
    return stream_ == other.stream_ && clause_ == other.clause_;
  }

 private:
  std::string stream_;
  ConjunctiveClause clause_;
};

}  // namespace cosmos

#endif  // COSMOS_CBN_FILTER_H_
