#ifndef COSMOS_CORE_PROCESSOR_H_
#define COSMOS_CORE_PROCESSOR_H_

#include <map>
#include <memory>
#include <set>
#include <string>

#include "cbn/network.h"
#include "core/grouping.h"
#include "core/profile_composer.h"
#include "overlay/optimizer.h"
#include "spe/plan.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace cosmos {

struct ProcessorOptions {
  // Query merging on/off (off = one singleton group per query, the
  // traditional per-query delivery of Figure 3a).
  bool enable_merging = true;
  GroupingOptions grouping;
  RateEstimatorOptions rates;
  // Telemetry taps (either nullptr = off): grouping counters, SPE tuple
  // counters and one evaluation span per plan fed a source tuple.
  // CosmosSystem fills these from its own SystemOptions when it creates
  // processors.
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
};

// A COSMOS processor (paper §2, Figure 2): the query layer of one node.
// The query-management module groups arriving analyzed queries, compiles
// each group representative into a QueryPlan that this processor drives
// itself (the local SPE), keeps the source-side CBN subscriptions in sync
// and bound to the plan ports that read them, publishes representative
// result streams back into the CBN, and installs the re-tightened per-user
// profiles that split shared result streams (Figure 3b).
class Processor {
 public:
  Processor(NodeId node, const Catalog* catalog,
            ContentBasedNetwork* network, ProcessorOptions options = {});

  NodeId node() const { return node_; }

  // Handles a user query, analyzed against this processor's catalog: the
  // result tuples, named by the query's result stream, are delivered to
  // `callback` at overlay node `user_node` through the CBN.
  Status SubmitQuery(const std::string& query_id, AnalyzedQuery query,
                     NodeId user_node, DeliveryCallback callback);

  Status RemoveQuery(const std::string& query_id);

  // Everything needed to resubmit a query elsewhere (processor failover).
  struct QueryRecord {
    std::string query_id;
    AnalyzedQuery query;
    NodeId user_node = -1;
    DeliveryCallback callback;
  };

  // Tears down every query (plans, source subscriptions, user profiles)
  // and returns their records for re-homing.
  std::vector<QueryRecord> DrainQueries();

  const GroupingEngine& grouping() const { return grouping_; }
  size_t num_queries() const { return queries_.size(); }

  // Representative queries currently installed as plans.
  size_t num_installed_representatives() const { return group_runtime_.size(); }

  // Appends this processor's persistent flows for the overlay optimizer:
  // source streams flowing publisher -> this node, and each member's split
  // result stream flowing this node -> the member's user node (rates from
  // the grouping engine's estimator).
  void CollectFlows(std::vector<Flow>* flows) const;

 private:
  struct GroupRuntime {
    uint64_t installed_version = 0;
    // The installed representative's plan (null when none is installed),
    // and the advertisement of its result stream that it publishes through
    // (empty when none is installed).
    std::unique_ptr<QueryPlan> plan;
    ContentBasedNetwork::Publisher publisher;
    // The installed representative's source profile: its share of the
    // processor's source subscriptions.
    Profile source;
  };
  // One input port of an installed plan, bound to the stream it reads.
  struct PlanPort {
    GroupRuntime* group = nullptr;
    size_t port = 0;
  };
  // One source stream's data-layer subscription: the merged part of every
  // installed representative reading the stream, and the plans it feeds.
  struct SourceSubscription {
    Profile part;
    ProfileId id = 0;
    // Appended when a plan is installed and erased when it is uninstalled,
    // so plans are fed in install order and a plan's ports in port order.
    std::vector<PlanPort> readers;
  };
  struct QueryRuntime {
    AnalyzedQuery analyzed;
    uint64_t group_id = 0;
    NodeId user_node = -1;
    DeliveryCallback callback;
    ProfileId user_profile = 0;
  };

  // Brings the installed plan and all member subscriptions of `group_id`
  // in line with the grouping engine's current state.
  Status SyncGroup(uint64_t group_id);
  // Unbinds `rt`'s plan from the streams it reads and drops it, with the
  // advertisement of its result stream.
  void UninstallGroup(GroupRuntime& rt);

  // The processor holds one data-layer subscription per source stream: the
  // merged part of every installed representative reading that stream.
  // Each plan re-applies its own selection, so over-delivery is filtered at
  // the SPE, never duplicated — a tuple of a stream matches only that
  // stream's subscription, so it enters each reading plan exactly once. A
  // group change recomposes only the streams its old and new
  // representatives read, and updates in place only the subscriptions
  // whose part changed structurally (Profile::operator==).
  void RefreshSourceSubscriptions(const std::set<std::string>& streams);

  // The delivery callback of `sub`'s subscription: pushes a tuple of
  // `stream` into every plan port bound to it, with no name lookup.
  void PushSourceTuple(const SourceSubscription& sub,
                       const std::string& stream, const Tuple& tuple);

  NodeId node_;
  const Catalog* catalog_;
  ContentBasedNetwork* network_;
  ProcessorOptions options_;
  GroupingEngine grouping_;
  Counter* tuples_in_ = nullptr;    // spe.tuples_in{node=...}
  Counter* results_out_ = nullptr;  // spe.results_out{node=...}
  std::map<uint64_t, GroupRuntime> group_runtime_;
  std::map<std::string, QueryRuntime> queries_;
  std::map<std::string, SourceSubscription> source_subscriptions_;
};

}  // namespace cosmos

#endif  // COSMOS_CORE_PROCESSOR_H_
