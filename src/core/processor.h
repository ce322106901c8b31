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
#include "spe/engine.h"

namespace cosmos {

struct ProcessorOptions {
  // Query merging on/off (off = one singleton group per query, the
  // traditional per-query delivery of Figure 3a).
  bool enable_merging = true;
  GroupingOptions grouping;
  RateEstimatorOptions rates;
  // Telemetry taps (either nullptr = off): grouping counters here, tuple
  // counters and evaluation spans on the embedded SPE. CosmosSystem fills
  // these from its own SystemOptions when it creates processors.
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
};

// A COSMOS processor (paper §2, Figure 2): the query layer of one node.
// The query-management module groups arriving analyzed queries, keeps the
// group representatives installed on the local SPE (handing the engine the
// analyzed representative itself), keeps the source-side CBN subscriptions
// in sync, publishes representative result streams back into the CBN, and
// installs the re-tightened per-user profiles that split shared result
// streams (Figure 3b).
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

  // Tears down every query (SPE installations, source subscription, user
  // profiles) and returns their records for re-homing.
  std::vector<QueryRecord> DrainQueries();

  const GroupingEngine& grouping() const { return grouping_; }
  size_t num_queries() const { return queries_.size(); }

  // Representative queries currently installed on the SPE.
  size_t num_installed_representatives() const { return group_runtime_.size(); }

  // Appends this processor's persistent flows for the overlay optimizer:
  // source streams flowing publisher -> this node, and each member's split
  // result stream flowing this node -> the member's user node (rates from
  // the grouping engine's estimator).
  void CollectFlows(std::vector<Flow>* flows) const;

 private:
  struct GroupRuntime {
    uint64_t installed_version = 0;
    std::string spe_query_id;
    std::string result_stream;
    // The installed representative's source profile: its share of the
    // processor's source subscriptions.
    Profile source;
  };
  // One source stream's data-layer subscription: the merged part of every
  // installed representative reading the stream.
  struct SourceSubscription {
    Profile part;
    ProfileId id = 0;
  };
  struct QueryRuntime {
    AnalyzedQuery analyzed;
    uint64_t group_id = 0;
    NodeId user_node = -1;
    DeliveryCallback callback;
    ProfileId user_profile = 0;
  };

  // Brings the SPE installation and all member subscriptions of `group_id`
  // in line with the grouping engine's current state.
  Status SyncGroup(uint64_t group_id);
  Status UninstallGroup(GroupRuntime& rt);

  // The processor holds one data-layer subscription per source stream: the
  // merged part of every installed representative reading that stream.
  // Each plan re-applies its own selection, so over-delivery is filtered at
  // the SPE, never duplicated — a tuple of a stream matches only that
  // stream's subscription, so it enters the engine exactly once. A group
  // change recomposes only the streams its old and new representatives
  // read, and resubscribes only those whose part changed structurally
  // (Profile::operator==).
  void RefreshSourceSubscriptions(const std::set<std::string>& streams);

  NodeId node_;
  const Catalog* catalog_;
  ContentBasedNetwork* network_;
  ProcessorOptions options_;
  GroupingEngine grouping_;
  SpeEngine engine_;
  std::map<uint64_t, GroupRuntime> group_runtime_;
  std::map<std::string, QueryRuntime> queries_;
  std::map<std::string, SourceSubscription> source_subscriptions_;
};

}  // namespace cosmos

#endif  // COSMOS_CORE_PROCESSOR_H_
