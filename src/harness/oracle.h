#ifndef COSMOS_HARNESS_ORACLE_H_
#define COSMOS_HARNESS_ORACLE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "query/analyzer.h"
#include "spe/plan.h"
#include "stream/catalog.h"

namespace cosmos {

// The DST ground-truth oracle: evaluates each submitted query directly on
// the injected tuple stream with a private reference QueryPlan per query —
// no CBN, no grouping, no representatives, no failures. Whatever the
// distributed system delivers to a user must match what the oracle computed
// for that user's query.
class GroundTruthOracle {
 public:
  explicit GroundTruthOracle(const Catalog* catalog);

  // Installs `cql` under `tag`; results accumulate while the query is live.
  Status Submit(const std::string& tag, const std::string& cql);

  // Stops accumulating results for `tag` (what it saw so far is kept).
  Status Remove(const std::string& tag);

  // Feeds one injected tuple to every live reference query.
  void Inject(const std::string& stream, const Tuple& tuple);

  bool Has(const std::string& tag) const { return entries_.count(tag) > 0; }
  std::vector<std::string> Tags() const;
  const AnalyzedQuery* Query(const std::string& tag) const;
  const std::vector<Tuple>& ResultsFor(const std::string& tag) const;

  // Evaluates an already-analyzed query over a complete injection log in a
  // fresh reference plan. Used for the representative-containment check
  // (the group representative is not a user query, so it has no live oracle
  // entry).
  static std::vector<Tuple> Evaluate(
      const AnalyzedQuery& query,
      const std::vector<std::pair<std::string, Tuple>>& log);

 private:
  struct Entry {
    AnalyzedQuery query;
    std::unique_ptr<QueryPlan> plan;
    bool live = true;
    // Owned behind a stable pointer: the plan's sink captures it.
    std::unique_ptr<std::vector<Tuple>> results;
  };

  const Catalog* catalog_;
  std::map<std::string, Entry> entries_;
};

}  // namespace cosmos

#endif  // COSMOS_HARNESS_ORACLE_H_
