#include "core/system.h"

#include "common/string_util.h"

namespace cosmos {

CosmosSystem::CosmosSystem(DisseminationTree tree, SystemOptions options,
                           Simulator* sim)
    : sim_(sim),
      network_(std::move(tree), options.network, sim),
      options_(options),
      distributor_(options.distribution) {
  network_.SetTelemetry(options_.metrics, options_.tracer);
  if (sim_ != nullptr && options_.metrics != nullptr) {
    sim_->SetTelemetry(options_.metrics);
  }
  if (sim_ != nullptr && options_.tracer != nullptr) {
    Simulator* s = sim_;
    options_.tracer->SetClock([s] { return s->now(); });
  }
}

Status CosmosSystem::AddProcessor(NodeId node) {
  if (node < 0 || node >= network_.num_nodes()) {
    return Status::InvalidArgument(StrFormat("bad node %d", node));
  }
  if (processors_.count(node) > 0) {
    return Status::AlreadyExists(StrFormat("processor at node %d", node));
  }
  ProcessorOptions popts = options_.processor;
  popts.metrics = options_.metrics;
  popts.tracer = options_.tracer;
  processors_.emplace(node, std::make_unique<Processor>(
                                node, &catalog_, &network_, popts));
  distributor_.AddProcessor(node);
  return Status::OK();
}

Processor* CosmosSystem::processor(NodeId node) {
  auto it = processors_.find(node);
  return it == processors_.end() ? nullptr : it->second.get();
}

Status CosmosSystem::RegisterSource(std::shared_ptr<const Schema> schema,
                                    double rate_tuples_per_sec,
                                    NodeId publisher_node) {
  if (publisher_node < 0 || publisher_node >= network_.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("bad publisher node %d", publisher_node));
  }
  const std::string stream = schema->stream_name();
  COSMOS_RETURN_IF_ERROR(catalog_.RegisterStream(
      std::move(schema), rate_tuples_per_sec, publisher_node));
  // Paper §2: "the data sources advertise the source streams that they
  // provide".
  sources_.emplace(stream, Source{network_.Advertise(publisher_node, stream),
                                  rate_monitor_.Track(stream)});
  return Status::OK();
}

std::vector<Flow> CosmosSystem::CollectFlows() const {
  std::vector<Flow> flows;
  for (const auto& [node, p] : processors_) {
    p->CollectFlows(&flows);
  }
  return flows;
}

std::vector<Flow> CosmosSystem::MeasuredFlows(
    const std::map<std::string, uint64_t>& baseline_bytes,
    double window_seconds) const {
  std::vector<Flow> flows;
  if (window_seconds <= 0.0) return flows;
  for (const auto& [stream, total] : network_.published_bytes_by_stream()) {
    auto bit = baseline_bytes.find(stream);
    uint64_t before = bit == baseline_bytes.end() ? 0 : bit->second;
    if (total <= before) continue;
    double rate_bps = static_cast<double>(total - before) / window_seconds;
    // Publishers come from CBN advertisements, so both source streams
    // (advertised by RegisterSource) and representative result streams
    // (advertised by their processor) are covered.
    const std::set<NodeId>* publishers = network_.PublishersOf(stream);
    if (publishers == nullptr) continue;
    for (NodeId p : *publishers) {
      network_.ForEachSubscription(
          [&flows, &stream, p, rate_bps](NodeId node,
                                         const Profile& profile) {
            if (node == p || !profile.WantsStream(stream)) return;
            flows.push_back(Flow{p, node, rate_bps});
          });
    }
  }
  return flows;
}

Result<OverlayOptimizer::Stats> CosmosSystem::SelfTune(
    OptimizerOptions options, const std::vector<Flow>* flows) {
  if (!overlay_.has_value()) {
    return Status::FailedPrecondition("no overlay registered; SetOverlay()");
  }
  if (options.metrics == nullptr) options.metrics = options_.metrics;
  if (options.tracer == nullptr) options.tracer = options_.tracer;
  OverlayOptimizer optimizer(*overlay_, std::move(options));
  std::vector<Flow> estimated;
  if (flows == nullptr) {
    estimated = CollectFlows();
    flows = &estimated;
  }
  OverlayOptimizer::Stats stats;
  COSMOS_ASSIGN_OR_RETURN(
      DisseminationTree improved,
      optimizer.Optimize(network_.tree(), *flows, &stats));
  if (stats.swaps_applied > 0) {
    COSMOS_RETURN_IF_ERROR(network_.RebuildTree(std::move(improved)));
  }
  return stats;
}

Status CosmosSystem::FailProcessor(NodeId node) {
  auto it = processors_.find(node);
  if (it == processors_.end()) {
    return Status::NotFound(StrFormat("no processor at node %d", node));
  }
  if (processors_.size() == 1) {
    return Status::FailedPrecondition(
        "cannot fail the only processor in the system");
  }
  std::vector<Processor::QueryRecord> orphans = it->second->DrainQueries();
  processors_.erase(it);
  // The distributor stops routing new queries there and releases the old
  // placements.
  for (const auto& r : orphans) {
    (void)distributor_.Release(r.query_id);
    query_home_.erase(r.query_id);
  }
  QueryDistributor fresh(options_.distribution);
  for (const auto& [n, p] : processors_) fresh.AddProcessor(n);
  // Preserve current loads so re-homing balances against live queries.
  for (const auto& [qid, home] : query_home_) {
    (void)fresh.RecordPlacement(qid, "", home);
  }
  distributor_ = std::move(fresh);

  // Re-home the orphans (their ids are stable; users keep their
  // callbacks).
  for (auto& r : orphans) {
    COSMOS_ASSIGN_OR_RETURN(
        NodeId home,
        distributor_.Assign(r.query_id, MergeSignature(r.query)));
    COSMOS_RETURN_IF_ERROR(processors_.at(home)->SubmitQuery(
        r.query_id, std::move(r.query), r.user_node, std::move(r.callback)));
    query_home_[r.query_id] = home;
  }
  return Status::OK();
}

Status CosmosSystem::RepairLinks() {
  if (!overlay_.has_value()) {
    return Status::FailedPrecondition("no overlay registered; SetOverlay()");
  }
  return network_.Repair(*overlay_);
}

Status CosmosSystem::PublishSourceTuple(const std::string& stream,
                                        const Tuple& tuple) {
  auto source = sources_.find(stream);
  if (source == sources_.end()) {
    return Status::NotFound(StrFormat("stream '%s'", stream.c_str()));
  }
  rate_monitor_.Record(source->second.rate, tuple.timestamp());
  if (tuple.timestamp() > max_event_time_) {
    max_event_time_ = tuple.timestamp();
  }
  network_.Publish(source->second.publisher, tuple);
  return Status::OK();
}

size_t CosmosSystem::CalibrateRates() {
  return rate_monitor_.CalibrateCatalog(catalog_, max_event_time_);
}

Status CosmosSystem::Replay(ReplayMerger& merger) {
  while (auto t = merger.Next()) {
    COSMOS_RETURN_IF_ERROR(
        PublishSourceTuple(t->schema()->stream_name(), *t));
  }
  return Status::OK();
}

Result<std::string> CosmosSystem::SubmitQuery(const std::string& cql,
                                              NodeId user_node,
                                              DeliveryCallback callback) {
  if (processors_.empty()) {
    return Status::FailedPrecondition("no processors in the system");
  }
  std::string query_id =
      StrFormat("q%llu", static_cast<unsigned long long>(next_query_id_++));
  // The query's one parse: the merge signature places it, and its home
  // processor groups the analyzed form.
  COSMOS_ASSIGN_OR_RETURN(
      AnalyzedQuery analyzed,
      ParseAndAnalyze(cql, catalog_, "result_" + query_id));
  COSMOS_ASSIGN_OR_RETURN(NodeId home,
                          distributor_.Assign(query_id,
                                              MergeSignature(analyzed)));
  Status status = processors_.at(home)->SubmitQuery(
      query_id, std::move(analyzed), user_node, std::move(callback));
  if (!status.ok()) {
    (void)distributor_.Release(query_id);
    return status;
  }
  query_home_[query_id] = home;
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("core.queries_submitted")->Increment();
  }
  return query_id;
}

Status CosmosSystem::RemoveQuery(const std::string& query_id) {
  auto it = query_home_.find(query_id);
  if (it == query_home_.end()) {
    return Status::NotFound(StrFormat("query '%s'", query_id.c_str()));
  }
  COSMOS_RETURN_IF_ERROR(processors_.at(it->second)->RemoveQuery(query_id));
  (void)distributor_.Release(query_id);
  query_home_.erase(it);
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("core.queries_removed")->Increment();
  }
  return Status::OK();
}

size_t CosmosSystem::TotalQueries() const {
  size_t total = 0;
  for (const auto& [node, p] : processors_) total += p->num_queries();
  return total;
}

size_t CosmosSystem::TotalGroups() const {
  size_t total = 0;
  for (const auto& [node, p] : processors_) {
    total += p->grouping().num_groups();
  }
  return total;
}

double CosmosSystem::TotalMemberRate() const {
  double total = 0.0;
  for (const auto& [node, p] : processors_) {
    total += p->grouping().TotalMemberRate();
  }
  return total;
}

double CosmosSystem::TotalRepresentativeRate() const {
  double total = 0.0;
  for (const auto& [node, p] : processors_) {
    total += p->grouping().TotalRepresentativeRate();
  }
  return total;
}

}  // namespace cosmos
