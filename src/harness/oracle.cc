#include "harness/oracle.h"

#include "common/check.h"
#include "common/string_util.h"

namespace cosmos {
namespace {

// The reference matches names on every tuple rather than binding ports at
// install: each port of `plan` reading `stream` takes the tuple, in port
// order.
void PushByName(QueryPlan& plan, const std::string& stream,
                const Tuple& tuple) {
  const std::vector<std::string>& inputs = plan.input_streams();
  for (size_t port = 0; port < inputs.size(); ++port) {
    if (inputs[port] == stream) plan.Push(port, tuple);
  }
}

}  // namespace

GroundTruthOracle::GroundTruthOracle(const Catalog* catalog)
    : catalog_(catalog) {}

Status GroundTruthOracle::Submit(const std::string& tag,
                                 const std::string& cql) {
  if (entries_.count(tag) > 0) {
    return Status::AlreadyExists(StrFormat("oracle tag '%s'", tag.c_str()));
  }
  COSMOS_ASSIGN_OR_RETURN(
      AnalyzedQuery analyzed,
      ParseAndAnalyze(cql, *catalog_, "oracle_" + tag));
  Entry entry;
  COSMOS_ASSIGN_OR_RETURN(entry.plan, QueryPlan::Build(analyzed));
  entry.query = std::move(analyzed);
  entry.results = std::make_unique<std::vector<Tuple>>();
  std::vector<Tuple>* sink = entry.results.get();
  entry.plan->SetSink([sink](const Tuple& t) { sink->push_back(t); });
  entries_.emplace(tag, std::move(entry));
  return Status::OK();
}

Status GroundTruthOracle::Remove(const std::string& tag) {
  auto it = entries_.find(tag);
  if (it == entries_.end()) {
    return Status::NotFound(StrFormat("oracle tag '%s'", tag.c_str()));
  }
  it->second.live = false;
  return Status::OK();
}

void GroundTruthOracle::Inject(const std::string& stream,
                               const Tuple& tuple) {
  for (auto& [tag, entry] : entries_) {
    if (entry.live) PushByName(*entry.plan, stream, tuple);
  }
}

std::vector<std::string> GroundTruthOracle::Tags() const {
  std::vector<std::string> tags;
  tags.reserve(entries_.size());
  for (const auto& [tag, entry] : entries_) tags.push_back(tag);
  return tags;
}

const AnalyzedQuery* GroundTruthOracle::Query(const std::string& tag) const {
  auto it = entries_.find(tag);
  return it == entries_.end() ? nullptr : &it->second.query;
}

const std::vector<Tuple>& GroundTruthOracle::ResultsFor(
    const std::string& tag) const {
  static const std::vector<Tuple> kEmpty;
  auto it = entries_.find(tag);
  return it == entries_.end() ? kEmpty : *it->second.results;
}

std::vector<Tuple> GroundTruthOracle::Evaluate(
    const AnalyzedQuery& query,
    const std::vector<std::pair<std::string, Tuple>>& log) {
  auto plan = QueryPlan::Build(query);
  COSMOS_CHECK(plan.ok());
  std::vector<Tuple> results;
  (*plan)->SetSink([&results](const Tuple& t) { results.push_back(t); });
  for (const auto& [stream, tuple] : log) {
    PushByName(**plan, stream, tuple);
  }
  return results;
}

}  // namespace cosmos
