#ifndef COSMOS_QUERY_UNPARSER_H_
#define COSMOS_QUERY_UNPARSER_H_

#include <string>

#include "query/analyzer.h"

namespace cosmos {

// Reconstructs CQL text from the semantic form, for display and error
// messages only: no install or subscription path goes through text (a
// processor hands its SPE the analyzed representative). Double literals
// print at 6 significant digits, so the text can differ from the query in
// constants that need more. Round-trip guarantee (tested on the workload
// generators, whose constants print exactly): ParseAndAnalyze(Unparse(q))
// is semantically equal to q.
std::string Unparse(const AnalyzedQuery& query);

// Rebuilds the WHERE expression (qualified names) of the semantic form:
// local selections AND equi-joins AND cross residual. Returns nullptr when
// the query has no predicate.
ExprPtr RebuildWhere(const AnalyzedQuery& query);

}  // namespace cosmos

#endif  // COSMOS_QUERY_UNPARSER_H_
