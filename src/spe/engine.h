#ifndef COSMOS_SPE_ENGINE_H_
#define COSMOS_SPE_ENGINE_H_

#include <map>
#include <memory>
#include <string>

#include "spe/plan.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace cosmos {

// Result tuples are reported with the id of the query that produced them;
// the result stream's name is the plan's output schema name.
using ResultSink =
    std::function<void(const std::string& query_id, const Tuple& tuple)>;

// The single-site stream processing engine: a set of live query plans fed
// by source tuples in event-time order. The paper (§2) puts each SPE behind
// a query wrapper (CQL text in) and a data wrapper so that heterogeneous
// engines can be plugged in. This repo ships this one engine, and a
// Processor calls it directly: it installs the analyzed representative, so
// no CQL text (whose double literals print at 6 significant digits) sits
// between the query layer and the engine, and source tuples arrive from the
// processor's CBN subscriptions.
class SpeEngine {
 public:
  SpeEngine() = default;

  // Compiles and installs `query` under `id`.
  Status InstallQuery(const std::string& id, const AnalyzedQuery& query,
                      ResultSink sink);

  Status RemoveQuery(const std::string& id);

  bool HasQuery(const std::string& id) const {
    return plans_.count(id) > 0;
  }
  size_t num_queries() const { return plans_.size(); }

  const QueryPlan* plan(const std::string& id) const;

  // Feeds one source tuple to every plan consuming `stream`.
  void PushSourceTuple(const std::string& stream, const Tuple& tuple);

  uint64_t tuples_pushed() const { return tuples_pushed_; }
  uint64_t results_emitted() const { return results_emitted_; }

  // Attaches instruments (either nullptr = off): node-labeled tuples-in /
  // results-out counters plus one tracer slice per query evaluation on
  // `node`'s row.
  void SetTelemetry(MetricsRegistry* metrics, Tracer* tracer, int node);

 private:
  struct Consumer {
    std::string id;
    QueryPlan* plan = nullptr;
  };

  std::map<std::string, std::unique_ptr<QueryPlan>> plans_;
  // stream -> queries consuming it: each plan once per distinct stream it
  // reads (Push fans a tuple out to every port of that stream).
  std::multimap<std::string, Consumer> by_stream_;
  uint64_t tuples_pushed_ = 0;
  uint64_t results_emitted_ = 0;
  Tracer* tracer_ = nullptr;
  int node_ = -1;
  Counter* tuples_in_counter_ = nullptr;
  Counter* results_out_counter_ = nullptr;
};

}  // namespace cosmos

#endif  // COSMOS_SPE_ENGINE_H_
