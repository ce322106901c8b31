#ifndef COSMOS_HARNESS_SCENARIO_H_
#define COSMOS_HARNESS_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/time.h"
#include "overlay/dissemination_tree.h"
#include "overlay/graph.h"
#include "stream/schema.h"

namespace cosmos {

// Knobs of the seed-driven scenario generator. The defaults are the
// dst_smoke envelope: small enough that a 50-seed suite finishes in
// seconds, large enough to exercise joins, aggregates, query merging,
// link failures, repairs, tree rebuilds and subscription churn.
struct DstOptions {
  int min_nodes = 8;
  int max_nodes = 20;
  int min_streams = 2;
  int max_streams = 4;
  // Shared kDouble measurement attributes per stream schema ("m0", ...);
  // shared names make every pair of streams join-compatible.
  int measurement_attrs = 3;
  // Measurement values are drawn from this many discrete levels (Zipf
  // skewed) so equality predicates and join keys actually collide.
  int value_levels = 12;
  int num_stations = 4;
  int min_processors = 1;
  int max_processors = 3;
  int min_initial_queries = 3;
  int max_initial_queries = 8;
  int min_tuples = 30;
  int max_tuples = 90;
  int max_link_failures = 3;  // fail/repair pairs on the timeline
  int max_tree_rebuilds = 1;
  int max_churn_queries = 3;  // mid-run submits (some later removed)
  double zipf_theta = 0.7;
  // Fraction of seeds that run under the discrete-event Simulator; the
  // rest run the synchronous network, which interleaves differently.
  double simulator_fraction = 0.75;
};

// The system regime a scenario runs under: NetworkOptions and
// ProcessorOptions knobs, each keeping its SystemOptions{} default with
// probability 3/4 (see GenerateScenario). buffer_on_failure is not drawn:
// without it a failure loses datagrams, which the oracle does not expect.
struct DstRegime {
  bool advertisement_scoping;
  bool covering_prune;
  bool early_projection;
  bool enable_merging;

  std::string ToString() const;
};

struct DstSourceSpec {
  std::string stream;
  NodeId publisher = 0;
  std::shared_ptr<const Schema> schema;
  double rate_tuples_per_sec = 5.0;
};

struct DstQuerySpec {
  std::string tag;  // scenario-level id, stable across shrinking
  std::string cql;
  NodeId user = 0;
};

enum class DstEventType {
  kInjectTuple,
  kFailLink,
  kRepairLinks,
  kRebuildTree,
  kSubmitQuery,
  kRemoveQuery,
};

const char* DstEventTypeToString(DstEventType type);

// One timeline event; fields not used by the event's type stay zero.
// kFailLink names its victim by ordinal into the LIVE tree's edge list
// (edges()[ordinal % n]) so the event keeps meaning after earlier repairs
// replaced edges — and after the shrinker dropped earlier events.
struct DstEvent {
  DstEventType type = DstEventType::kInjectTuple;
  Timestamp at = 0;  // simulator time (microseconds)

  // kInjectTuple
  size_t source_index = 0;
  Timestamp event_time = 0;  // tuple timestamp (application time)
  int64_t station = 0;
  std::vector<double> measurements;

  // kFailLink
  uint64_t edge_ordinal = 0;

  // kRebuildTree
  uint64_t tree_seed = 0;

  // kSubmitQuery
  DstQuerySpec query;
  // kRemoveQuery
  std::string target_tag;

  std::string ToString() const;
};

// A fully materialized scenario: everything RunScenario() needs, derived
// deterministically from the seed. Regenerating with the same seed and
// options yields an identical scenario, so a failing seed IS the repro.
struct DstScenario {
  uint64_t seed = 0;
  bool use_simulator = true;
  DstRegime regime{};
  int num_nodes = 0;
  Graph overlay;
  DisseminationTree tree;
  std::vector<NodeId> processors;
  std::vector<DstSourceSpec> sources;
  std::vector<DstQuerySpec> initial_queries;
  std::vector<DstEvent> events;

  std::string ToString() const;
};

// Derives a scenario from `seed`. Each concern (topology, schemas,
// placement, queries, tuples, faults, churn, regime) consumes its own
// Rng::Derive stream of the seed, so shrinking one axis never perturbs
// the others.
DstScenario GenerateScenario(uint64_t seed, const DstOptions& options = {});

}  // namespace cosmos

#endif  // COSMOS_HARNESS_SCENARIO_H_
