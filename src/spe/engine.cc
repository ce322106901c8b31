#include "spe/engine.h"

#include <set>

#include "common/string_util.h"

namespace cosmos {

Status SpeEngine::InstallQuery(const std::string& id,
                               const AnalyzedQuery& query, ResultSink sink) {
  if (plans_.count(id) > 0) {
    return Status::AlreadyExists(StrFormat("query '%s'", id.c_str()));
  }
  COSMOS_ASSIGN_OR_RETURN(auto plan, QueryPlan::Build(query));
  plan->SetSink([this, id, sink = std::move(sink)](const Tuple& t) {
    ++results_emitted_;
    if (results_out_counter_ != nullptr) results_out_counter_->Increment();
    if (sink) sink(id, t);
  });
  // Register distinct consumed streams (Push fans to every matching port
  // internally, so one registration per stream suffices).
  std::set<std::string> streams(plan->input_streams().begin(),
                                plan->input_streams().end());
  for (const auto& s : streams) {
    by_stream_.emplace(s, Consumer{id, plan.get()});
  }
  plans_.emplace(id, std::move(plan));
  return Status::OK();
}

Status SpeEngine::RemoveQuery(const std::string& id) {
  auto it = plans_.find(id);
  if (it == plans_.end()) {
    return Status::NotFound(StrFormat("query '%s'", id.c_str()));
  }
  // The plan is registered once under each distinct stream it reads; a
  // stream it reads twice finds nothing left the second time.
  QueryPlan* plan = it->second.get();
  for (const auto& s : plan->input_streams()) {
    auto [begin, end] = by_stream_.equal_range(s);
    for (auto sit = begin; sit != end; ++sit) {
      if (sit->second.plan == plan) {
        by_stream_.erase(sit);
        break;
      }
    }
  }
  plans_.erase(it);
  return Status::OK();
}

const QueryPlan* SpeEngine::plan(const std::string& id) const {
  auto it = plans_.find(id);
  return it == plans_.end() ? nullptr : it->second.get();
}

void SpeEngine::PushSourceTuple(const std::string& stream,
                                const Tuple& tuple) {
  ++tuples_pushed_;
  if (tuples_in_counter_ != nullptr) tuples_in_counter_->Increment();
  auto [begin, end] = by_stream_.equal_range(stream);
  for (auto it = begin; it != end; ++it) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      Tracer::Span span = tracer_->BeginSpan("spe", "eval", node_);
      span.AddArg("query", Tracer::ArgString(it->second.id));
      span.AddArg("stream", Tracer::ArgString(stream));
      it->second.plan->Push(stream, tuple);
    } else {
      it->second.plan->Push(stream, tuple);
    }
  }
}

void SpeEngine::SetTelemetry(MetricsRegistry* metrics, Tracer* tracer,
                             int node) {
  tracer_ = tracer;
  node_ = node;
  if (metrics == nullptr) {
    tuples_in_counter_ = nullptr;
    results_out_counter_ = nullptr;
    return;
  }
  std::string label = StrFormat("%d", node);
  tuples_in_counter_ = metrics->GetCounter("spe.tuples_in", "node", label);
  results_out_counter_ =
      metrics->GetCounter("spe.results_out", "node", label);
}

}  // namespace cosmos
