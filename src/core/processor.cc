#include "core/processor.h"

#include "common/check.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace cosmos {
namespace {

GroupingOptions EffectiveGrouping(const ProcessorOptions& options) {
  GroupingOptions g = options.grouping;
  if (!options.enable_merging) {
    g.max_candidates = 0;  // never examine existing groups => singletons
  }
  return g;
}

}  // namespace

Processor::Processor(NodeId node, const Catalog* catalog,
                     ContentBasedNetwork* network, ProcessorOptions options)
    : node_(node),
      catalog_(catalog),
      network_(network),
      options_(options),
      grouping_(catalog, EffectiveGrouping(options), options.rates,
                StrFormat("p%d_", node)) {
  if (options_.metrics != nullptr) {
    const std::string label = StrFormat("%d", node_);
    tuples_in_ = options_.metrics->GetCounter("spe.tuples_in", "node", label);
    results_out_ =
        options_.metrics->GetCounter("spe.results_out", "node", label);
  }
}

Status Processor::SubmitQuery(const std::string& query_id,
                              AnalyzedQuery query, NodeId user_node,
                              DeliveryCallback callback) {
  if (queries_.count(query_id) > 0) {
    return Status::AlreadyExists(
        StrFormat("query '%s'", query_id.c_str()));
  }
  COSMOS_ASSIGN_OR_RETURN(GroupingEngine::AddResult placement,
                          grouping_.AddQuery(query_id, query));
  if (options_.metrics != nullptr) {
    options_.metrics
        ->GetCounter(placement.created_new_group ? "core.groups_formed"
                                                 : "core.group_merges")
        ->Increment();
    options_.metrics->GetGauge("core.merge_benefit")
        ->Add(placement.marginal_benefit);
    if (placement.representative_changed) {
      options_.metrics->GetCounter("core.representative_changes")
          ->Increment();
    }
  }

  QueryRuntime rt;
  rt.analyzed = std::move(query);
  rt.group_id = placement.group_id;
  rt.user_node = user_node;
  rt.callback = std::move(callback);
  queries_.emplace(query_id, std::move(rt));

  Status status = SyncGroup(placement.group_id);
  if (!status.ok()) {
    // Roll back the placement, and with it whatever SyncGroup installed
    // before it failed, so the engine, runtime and CBN stay consistent.
    (void)RemoveQuery(query_id);
    return status;
  }
  return Status::OK();
}

void Processor::UninstallGroup(GroupRuntime& rt) {
  rt.publisher = {};
  if (rt.plan == nullptr) return;
  for (const std::string& stream : rt.plan->input_streams()) {
    std::erase_if(source_subscriptions_.at(stream).readers,
                  [&rt](const PlanPort& in) { return in.group == &rt; });
  }
  rt.plan.reset();
}

void Processor::PushSourceTuple(const SourceSubscription& sub,
                                const std::string& stream,
                                const Tuple& tuple) {
  if (tuples_in_ != nullptr) tuples_in_->Increment();
  Tracer* tracer = options_.tracer;
  const bool traced = tracer != nullptr && tracer->enabled();
  for (const PlanPort& in : sub.readers) {
    if (!traced) {
      in.group->plan->Push(in.port, tuple);
      continue;
    }
    Tracer::Span span = tracer->BeginSpan("spe", "eval", node_);
    span.AddArg("query", Tracer::ArgString(in.group->publisher.stream()));
    span.AddArg("stream", Tracer::ArgString(stream));
    in.group->plan->Push(in.port, tuple);
  }
}

void Processor::RefreshSourceSubscriptions(
    const std::set<std::string>& streams) {
  for (const std::string& stream : streams) {
    // Merge the stream's part of every installed representative, in group
    // order.
    bool any = false;
    Profile merged;
    for (const auto& [gid, rt] : group_runtime_) {
      if (!rt.source.WantsStream(stream)) continue;
      Profile part = rt.source.StreamPart(stream);
      merged = any ? MergeProfiles(merged, part) : std::move(part);
      any = true;
    }
    if (!any) {
      auto it = source_subscriptions_.find(stream);
      if (it == source_subscriptions_.end()) continue;
      COSMOS_DCHECK(it->second.readers.empty())
          << "a plan reads " << stream << " with no representative wanting it";
      const ProfileId old = it->second.id;
      source_subscriptions_.erase(it);
      if (old != 0) network_->Unsubscribe(old);
      continue;
    }
    SourceSubscription& sub = source_subscriptions_[stream];
    if (sub.id != 0) {
      if (sub.part == merged) continue;  // part unchanged
      // The same stream's part, rewritten in place along the entries the
      // subscription already has, so source coverage never lapses.
      network_->Update(sub.id, merged);
      sub.part = std::move(merged);
      continue;
    }
    const SourceSubscription* record = &sub;
    sub.id = network_->Subscribe(
        node_, merged,
        [this, record](const std::string& s, const Tuple& tuple) {
          PushSourceTuple(*record, s, tuple);
        });
    sub.part = std::move(merged);
  }
}

Status Processor::SyncGroup(uint64_t group_id) {
  const QueryGroup* group = grouping_.FindGroup(group_id);
  GroupRuntime& rt = group_runtime_[group_id];

  if (group == nullptr) {
    // Group dissolved: tear everything down.
    UninstallGroup(rt);
    const std::set<std::string> streams = rt.source.streams();
    group_runtime_.erase(group_id);
    RefreshSourceSubscriptions(streams);
    if (options_.metrics != nullptr) {
      options_.metrics->GetCounter("core.groups_dissolved")->Increment();
    }
    return Status::OK();
  }

  const bool reinstall = rt.installed_version != group->version;
  if (reinstall) {
    UninstallGroup(rt);

    // Compile the analyzed representative into a plan; its results are
    // published into the CBN as the group's result stream, which this
    // processor advertises (paper §2: "the processors would also advertise
    // the result streams that they generate").
    COSMOS_DCHECK(group->representative.output_schema()->stream_name() ==
                  group->ResultStreamName())
        << "representative analyzed under a stale result stream name";
    rt.publisher = network_->Advertise(node_, group->ResultStreamName());
    COSMOS_ASSIGN_OR_RETURN(rt.plan, QueryPlan::Build(group->representative));
    ContentBasedNetwork* network = network_;
    ContentBasedNetwork::Publisher* publisher = &rt.publisher;
    Counter* results_out = results_out_;
    rt.plan->SetSink([network, publisher, results_out](const Tuple& tuple) {
      if (results_out != nullptr) results_out->Increment();
      network->Publish(*publisher, tuple);
    });
    // Bind each input port to its stream's record now, so a delivered
    // tuple reaches the port without a name lookup.
    const std::vector<std::string>& inputs = rt.plan->input_streams();
    for (size_t port = 0; port < inputs.size(); ++port) {
      source_subscriptions_[inputs[port]].readers.push_back(
          PlanPort{&rt, port});
    }
    rt.installed_version = group->version;
    std::set<std::string> streams = rt.source.streams();
    rt.source = ComposeSourceProfile(group->representative);
    streams.insert(rt.source.streams().begin(), rt.source.streams().end());
    RefreshSourceSubscriptions(streams);
  }

  // Each member's re-tightened user profile must point at the installed
  // result stream. A reinstall (possibly renamed, possibly widened)
  // replaces every member's profile; otherwise only newly added members
  // (no profile yet) subscribe.
  for (const auto& member_id : group->member_ids) {
    auto qit = queries_.find(member_id);
    if (qit == queries_.end()) continue;
    QueryRuntime& q = qit->second;
    if (q.user_profile != 0) {
      if (!reinstall) continue;
      network_->Unsubscribe(q.user_profile);
      q.user_profile = 0;
    }
    COSMOS_ASSIGN_OR_RETURN(
        Profile user_profile,
        ComposeUserProfile(q.analyzed, group->representative));
    COSMOS_ASSIGN_OR_RETURN(
        TupleTarget target,
        ComposeUserTarget(q.analyzed, group->representative));
    q.user_profile = network_->Subscribe(
        q.user_node, std::move(user_profile), q.callback,
        std::make_shared<const TupleTarget>(std::move(target)));
  }
  return Status::OK();
}

std::vector<Processor::QueryRecord> Processor::DrainQueries() {
  std::vector<QueryRecord> records;
  records.reserve(queries_.size());
  for (const auto& [id, q] : queries_) {
    QueryRecord r;
    r.query_id = id;
    r.query = q.analyzed;
    r.user_node = q.user_node;
    r.callback = q.callback;
    records.push_back(std::move(r));
  }
  // Tear down in a stable order; RemoveQuery keeps grouping and CBN state
  // consistent at every step.
  for (const auto& r : records) {
    (void)RemoveQuery(r.query_id);
  }
  return records;
}

void Processor::CollectFlows(std::vector<Flow>* flows) const {
  const RateEstimator& est = grouping_.rate_estimator();
  for (const auto& [gid, group] : grouping_.groups()) {
    // Source streams: publisher -> processor, filtered rate x row width.
    for (size_t i = 0; i < group.representative.sources().size(); ++i) {
      const auto& src = group.representative.sources()[i];
      auto info = catalog_->Lookup(src.from.stream);
      if (!info.ok() || info->publisher_node < 0) continue;
      Flow f;
      f.source = info->publisher_node;
      f.sink = node_;
      f.rate_bps = est.FilteredInputRate(group.representative, i) *
                   static_cast<double>(src.schema->EstimatedRowWidth() + 8);
      flows->push_back(f);
    }
    // Result streams: processor -> each member's user node at the member's
    // (post-split) rate.
    for (const auto& member_id : group.member_ids) {
      auto qit = queries_.find(member_id);
      if (qit == queries_.end()) continue;
      Flow f;
      f.source = node_;
      f.sink = qit->second.user_node;
      f.rate_bps = est.EstimateOutputRate(qit->second.analyzed);
      flows->push_back(f);
    }
  }
}

Status Processor::RemoveQuery(const std::string& query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound(StrFormat("query '%s'", query_id.c_str()));
  }
  QueryRuntime& q = it->second;
  if (q.user_profile != 0) {
    network_->Unsubscribe(q.user_profile);
  }
  uint64_t group_id = q.group_id;
  queries_.erase(it);
  COSMOS_RETURN_IF_ERROR(grouping_.RemoveQuery(query_id).status());
  return SyncGroup(group_id);
}

}  // namespace cosmos
