#ifndef COSMOS_CORE_SYSTEM_H_
#define COSMOS_CORE_SYSTEM_H_

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "core/processor.h"
#include "core/query_distribution.h"
#include "core/statistics.h"
#include "stream/generator.h"

namespace cosmos {

struct SystemOptions {
  NetworkOptions network;
  DistributionPolicy distribution = DistributionPolicy::kSignatureAffinity;
  ProcessorOptions processor;
  // Telemetry taps (either nullptr = off). When set they are wired through
  // the CBN, every processor's SPE, the simulator and optimizer runs; the
  // tracer's clock is bound to the simulator's virtual time.
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
};

// The COSMOS system façade (paper Figure 1): a dissemination tree of
// brokers, a subset of nodes equipped with SPEs (processors), data sources
// publishing named streams, and users submitting CQL queries from arbitrary
// nodes. Every node participates in the CBN data layer; only processors run
// the query layer.
class CosmosSystem {
 public:
  explicit CosmosSystem(DisseminationTree tree, SystemOptions options = {},
                        Simulator* sim = nullptr);

  // Registers the physical overlay graph (superset of the tree). Required
  // for SelfTune() and RepairLink() — the tree alone offers no alternate
  // routes.
  void SetOverlay(Graph overlay) { overlay_ = std::move(overlay); }
  bool has_overlay() const { return overlay_.has_value(); }

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  ContentBasedNetwork& network() { return network_; }
  const ContentBasedNetwork& network() const { return network_; }

  // Equips `node` with a stream processing engine.
  Status AddProcessor(NodeId node);
  Processor* processor(NodeId node);
  size_t num_processors() const { return processors_.size(); }

  // Registers a source stream published at `publisher_node`, which
  // advertises it from then on.
  Status RegisterSource(std::shared_ptr<const Schema> schema,
                        double rate_tuples_per_sec, NodeId publisher_node);

  // Injects one tuple of `stream` into the CBN at its publisher.
  Status PublishSourceTuple(const std::string& stream, const Tuple& tuple);

  // Replays an entire timestamp-ordered feed (e.g. SensorDataset replay).
  Status Replay(ReplayMerger& merger);

  // Submits a CQL query from a user at `user_node`; results arrive at
  // `callback`. Returns the assigned query id.
  Result<std::string> SubmitQuery(const std::string& cql, NodeId user_node,
                                  DeliveryCallback callback);

  Status RemoveQuery(const std::string& query_id);

  // ---- self-tuning (the "S" in COSMOS; paper §3.2) ----

  // Source arrival rates observed by the data layer (every
  // PublishSourceTuple is recorded at its event time).
  const RateMonitor& rate_monitor() const { return rate_monitor_; }

  // Replaces the catalog's rate estimates with the observed rates so
  // subsequent grouping decisions use measured reality. Returns the number
  // of streams recalibrated.
  size_t CalibrateRates();

  // Derives the persistent flows (sources -> processors -> users) from the
  // live query population.
  std::vector<Flow> CollectFlows() const;

  // Flows derived from *measured* per-stream published byte counters
  // instead of estimator guesses: for each stream whose published bytes
  // grew past `baseline_bytes` (a previous copy of the CBN's
  // published_bytes_by_stream(); empty = since start), one flow per
  // (advertised publisher -> subscriber wanting the stream) at
  // delta_bytes / window_seconds.
  std::vector<Flow> MeasuredFlows(
      const std::map<std::string, uint64_t>& baseline_bytes,
      double window_seconds) const;

  // Runs the overlay optimizer against the current tree and, when it finds
  // a cheaper one, rebuilds the CBN on it (all subscription state is
  // reinstalled). Requires SetOverlay(). `flows` overrides the estimated
  // CollectFlows() — the SelfTuner passes MeasuredFlows().
  Result<OverlayOptimizer::Stats> SelfTune(
      OptimizerOptions options = {},
      const std::vector<Flow>* flows = nullptr);

  // ---- data-layer fault tolerance ----

  // Fails a tree link; in-flight interest continues to be buffered by the
  // CBN (NetworkOptions::buffer_on_failure).
  Status FailLink(NodeId u, NodeId v) { return network_.FailLink(u, v); }

  // Repairs all failed links with overlay edges and flushes buffers.
  // Requires SetOverlay().
  Status RepairLinks();

  // Query-layer failover: removes the processor at `node` and re-homes its
  // queries onto the remaining processors (same query ids, same user
  // callbacks; the queries re-enter grouping at their new homes). Fails
  // when it is the only processor.
  Status FailProcessor(NodeId node);

  // The attached simulator (nullptr in synchronous mode).
  Simulator* sim() { return sim_; }
  const SystemOptions& options() const { return options_; }

  // Aggregate grouping stats over all processors.
  size_t TotalQueries() const;
  size_t TotalGroups() const;
  double TotalMemberRate() const;
  double TotalRepresentativeRate() const;

 private:
  Simulator* sim_ = nullptr;
  std::optional<Graph> overlay_;
  RateMonitor rate_monitor_;
  Timestamp max_event_time_ = 0;
  Catalog catalog_;
  ContentBasedNetwork network_;
  // A registered source stream as PublishSourceTuple needs it. Declared
  // after the network, which its publisher must not outlive.
  struct Source {
    ContentBasedNetwork::Publisher publisher;
    RateMonitor::Series* rate = nullptr;
  };
  std::unordered_map<std::string, Source> sources_;
  SystemOptions options_;
  QueryDistributor distributor_;
  std::map<NodeId, std::unique_ptr<Processor>> processors_;
  std::map<std::string, NodeId> query_home_;
  uint64_t next_query_id_ = 1;
};

}  // namespace cosmos

#endif  // COSMOS_CORE_SYSTEM_H_
