#include "harness/scenario.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "common/zipf.h"
#include "core/system.h"
#include "core/workload.h"
#include "overlay/spanning_tree.h"
#include "overlay/topology.h"
#include "stream/catalog.h"

namespace cosmos {

namespace {

// Rng::Derive stream ids, one per concern. Keeping the draws decorrelated
// means dropping (say) a fault event during shrinking never changes which
// tuples or queries the seed produces.
constexpr uint64_t kTopologyStream = 1;
constexpr uint64_t kSchemaStream = 2;
constexpr uint64_t kPlacementStream = 3;
constexpr uint64_t kQueryStream = 4;
constexpr uint64_t kTupleStream = 5;
constexpr uint64_t kFaultStream = 6;
constexpr uint64_t kChurnStream = 7;
constexpr uint64_t kModeStream = 8;
constexpr uint64_t kRegimeStream = 9;

int BoundedBetween(Rng& rng, int lo, int hi) {
  COSMOS_CHECK_LE(lo, hi);
  return lo + static_cast<int>(rng.NextBounded(
                  static_cast<uint64_t>(hi - lo + 1)));
}

std::shared_ptr<const Schema> MakeStreamSchema(const std::string& name,
                                               const DstOptions& options) {
  std::vector<AttributeDef> attrs;
  attrs.emplace_back("station_id", ValueType::kInt64, 0.0,
                     static_cast<double>(options.num_stations - 1));
  for (int m = 0; m < options.measurement_attrs; ++m) {
    attrs.emplace_back(StrFormat("m%d", m), ValueType::kDouble, 0.0, 100.0);
  }
  attrs.emplace_back("timestamp", ValueType::kInt64);
  return std::make_shared<Schema>(name, std::move(attrs));
}

}  // namespace

const char* DstEventTypeToString(DstEventType type) {
  switch (type) {
    case DstEventType::kInjectTuple:
      return "inject";
    case DstEventType::kFailLink:
      return "fail-link";
    case DstEventType::kRepairLinks:
      return "repair";
    case DstEventType::kRebuildTree:
      return "rebuild-tree";
    case DstEventType::kSubmitQuery:
      return "submit";
    case DstEventType::kRemoveQuery:
      return "remove";
  }
  return "?";
}

std::string DstEvent::ToString() const {
  std::string out = StrFormat("@%-8lld %s", static_cast<long long>(at),
                              DstEventTypeToString(type));
  switch (type) {
    case DstEventType::kInjectTuple: {
      out += StrFormat(" source=%zu ts=%lld station=%lld vals=[",
                       source_index, static_cast<long long>(event_time),
                       static_cast<long long>(station));
      for (size_t i = 0; i < measurements.size(); ++i) {
        if (i > 0) out += ",";
        out += StrFormat("%g", measurements[i]);
      }
      out += "]";
      break;
    }
    case DstEventType::kFailLink:
      out += StrFormat(" edge_ordinal=%llu",
                       static_cast<unsigned long long>(edge_ordinal));
      break;
    case DstEventType::kRepairLinks:
      break;
    case DstEventType::kRebuildTree:
      out += StrFormat(" tree_seed=%llu",
                       static_cast<unsigned long long>(tree_seed));
      break;
    case DstEventType::kSubmitQuery:
      out += StrFormat(" tag=%s user=%d cql=\"%s\"", query.tag.c_str(),
                       query.user, query.cql.c_str());
      break;
    case DstEventType::kRemoveQuery:
      out += StrFormat(" tag=%s", target_tag.c_str());
      break;
  }
  return out;
}

std::string DstRegime::ToString() const {
  auto on = [](bool knob) { return knob ? "on" : "off"; };
  return StrFormat(
      "advertisement_scoping=%s covering_prune=%s early_projection=%s "
      "enable_merging=%s",
      on(advertisement_scoping), on(covering_prune), on(early_projection),
      on(enable_merging));
}

std::string DstScenario::ToString() const {
  std::string out = StrFormat(
      "scenario seed=%llu mode=%s nodes=%d overlay_edges=%zu\n",
      static_cast<unsigned long long>(seed), use_simulator ? "sim" : "sync",
      num_nodes, overlay.num_edges());
  out += StrFormat("regime: %s\n", regime.ToString().c_str());
  out += "processors:";
  for (NodeId p : processors) out += StrFormat(" %d", p);
  out += "\nsources:\n";
  for (const auto& src : sources) {
    out += StrFormat("  %s @node %d\n", src.stream.c_str(), src.publisher);
  }
  out += StrFormat("initial queries (%zu):\n", initial_queries.size());
  for (const auto& q : initial_queries) {
    out += StrFormat("  [%s] user=%d %s\n", q.tag.c_str(), q.user,
                     q.cql.c_str());
  }
  out += StrFormat("events (%zu):\n", events.size());
  for (const auto& e : events) {
    out += "  " + e.ToString() + "\n";
  }
  return out;
}

DstScenario GenerateScenario(uint64_t seed, const DstOptions& options) {
  Rng root(seed);
  Rng topo = root.Derive(kTopologyStream);
  Rng schema_rng = root.Derive(kSchemaStream);
  Rng placement = root.Derive(kPlacementStream);
  Rng queries = root.Derive(kQueryStream);
  Rng tuples = root.Derive(kTupleStream);
  Rng faults = root.Derive(kFaultStream);
  Rng churn = root.Derive(kChurnStream);
  Rng mode = root.Derive(kModeStream);
  Rng regime = root.Derive(kRegimeStream);

  DstScenario s;
  s.seed = seed;
  s.num_nodes = BoundedBetween(topo, options.min_nodes, options.max_nodes);
  s.use_simulator = mode.NextDouble() < options.simulator_fraction;
  // Each knob keeps its shipped value with probability 3/4. Covering prune
  // is drawn last, so the other knobs of a seed do not depend on whether
  // it draws covering.
  const SystemOptions shipped;
  auto draw = [&regime](bool knob) { return regime.NextBool(0.25) != knob; };
  s.regime.advertisement_scoping =
      draw(shipped.network.advertisement_scoping);
  s.regime.early_projection = draw(shipped.network.early_projection);
  s.regime.enable_merging = draw(shipped.processor.enable_merging);
  s.regime.covering_prune = draw(shipped.network.covering_prune);

  TopologyOptions topt;
  topt.num_nodes = s.num_nodes;
  topt.seed = topo.NextUint64();
  topt.ba_edges_per_node = 2;
  topt.plane_size = 50.0;  // hop delays up to ~70ms
  s.overlay = GenerateBarabasiAlbert(topt).graph;
  Result<std::vector<Edge>> mst = MinimumSpanningTree(s.overlay);
  COSMOS_CHECK(mst.ok());  // BA topologies are connected by construction
  Result<DisseminationTree> tree =
      DisseminationTree::FromEdges(s.num_nodes, *mst);
  COSMOS_CHECK(tree.ok());
  s.tree = std::move(*tree);

  // ---- streams: shared attribute names make every pair join-compatible.
  int num_streams =
      BoundedBetween(schema_rng, options.min_streams, options.max_streams);
  for (int i = 0; i < num_streams; ++i) {
    DstSourceSpec src;
    src.stream = StrFormat("dst_s%d", i);
    src.schema = MakeStreamSchema(src.stream, options);
    src.publisher = static_cast<NodeId>(
        placement.NextBounded(static_cast<uint64_t>(s.num_nodes)));
    s.sources.push_back(std::move(src));
  }

  // ---- processors: distinct nodes.
  int num_processors = BoundedBetween(
      placement, options.min_processors,
      std::min(options.max_processors, s.num_nodes));
  while (static_cast<int>(s.processors.size()) < num_processors) {
    NodeId candidate = static_cast<NodeId>(
        placement.NextBounded(static_cast<uint64_t>(s.num_nodes)));
    if (std::find(s.processors.begin(), s.processors.end(), candidate) ==
        s.processors.end()) {
      s.processors.push_back(candidate);
    }
  }

  // A scratch catalog so the workload generator sees the scenario streams.
  Catalog catalog;
  for (const auto& src : s.sources) {
    COSMOS_CHECK(catalog
                     .RegisterStream(src.schema, src.rate_tuples_per_sec,
                                     src.publisher)
                     .ok());
  }

  // ---- initial queries: the full mix. Stateful (join/aggregate) queries
  // are ONLY generated here: reinstalling a representative mid-run (a group
  // version bump) legitimately resets SPE window state, which the replay
  // oracle cannot mirror; keeping group membership fixed while tuples flow
  // keeps the oracle exact.
  WorkloadOptions wopt;
  wopt.zipf_theta = options.zipf_theta;
  wopt.seed = queries.NextUint64();
  wopt.mean_predicates = 1.2;
  wopt.aggregate_fraction = 0.25;
  wopt.join_fraction = 0.15;
  wopt.window_menu = {2 * kMinute, 30 * kSecond, 10 * kMinute, 5 * kSecond,
                      1 * kMinute};
  wopt.max_projected = 3;
  QueryWorkloadGenerator initial_gen(&catalog, wopt);
  int num_initial = BoundedBetween(queries, options.min_initial_queries,
                                   options.max_initial_queries);
  for (int i = 0; i < num_initial; ++i) {
    DstQuerySpec q;
    q.tag = StrFormat("q%d", i);
    q.cql = initial_gen.NextCql();
    q.user = static_cast<NodeId>(
        queries.NextBounded(static_cast<uint64_t>(s.num_nodes)));
    s.initial_queries.push_back(std::move(q));
  }

  // ---- tuple injections: sim-times advance in small steps; application
  // event times advance globally (all streams share one clock), so every
  // subscriber sees each stream in nondecreasing event-time order.
  int num_tuples =
      BoundedBetween(tuples, options.min_tuples, options.max_tuples);
  ZipfDistribution stream_dist(s.sources.size(), options.zipf_theta);
  ZipfDistribution level_dist(static_cast<size_t>(options.value_levels),
                              options.zipf_theta);
  Timestamp at = 0;
  Timestamp event_time = 0;
  Timestamp last_inject_at = 0;
  for (int i = 0; i < num_tuples; ++i) {
    at += (1 + static_cast<Timestamp>(tuples.NextBounded(20))) * kMillisecond;
    event_time +=
        (1 + static_cast<Timestamp>(tuples.NextBounded(30))) * kSecond;
    DstEvent e;
    e.type = DstEventType::kInjectTuple;
    e.at = at;
    e.source_index = stream_dist.Sample(tuples);
    e.event_time = event_time;
    e.station = static_cast<int64_t>(
        tuples.NextBounded(static_cast<uint64_t>(options.num_stations)));
    for (int m = 0; m < options.measurement_attrs; ++m) {
      // Discrete levels over [0, 100]: exact doubles, so selection
      // boundaries and join keys genuinely collide.
      size_t level = level_dist.Sample(tuples);
      e.measurements.push_back(100.0 * static_cast<double>(level) /
                               static_cast<double>(options.value_levels));
    }
    s.events.push_back(std::move(e));
    last_inject_at = at;
  }

  // ---- faults: fail/repair pairs anywhere on the timeline. The runner
  // resolves edge ordinals against the live tree and skips a failure that
  // would make the overlay unrepairable.
  int num_failures = static_cast<int>(
      faults.NextBounded(static_cast<uint64_t>(options.max_link_failures + 1)));
  for (int i = 0; i < num_failures; ++i) {
    Timestamp fail_at = static_cast<Timestamp>(
        faults.NextBounded(static_cast<uint64_t>(last_inject_at + 1)));
    DstEvent fail;
    fail.type = DstEventType::kFailLink;
    fail.at = fail_at;
    fail.edge_ordinal = faults.NextUint64();
    s.events.push_back(std::move(fail));

    DstEvent repair;
    repair.type = DstEventType::kRepairLinks;
    repair.at = fail_at + (1 + static_cast<Timestamp>(
                                   faults.NextBounded(40))) * kMillisecond;
    s.events.push_back(std::move(repair));
  }

  int num_rebuilds = static_cast<int>(
      faults.NextBounded(static_cast<uint64_t>(options.max_tree_rebuilds + 1)));
  for (int i = 0; i < num_rebuilds; ++i) {
    DstEvent e;
    e.type = DstEventType::kRebuildTree;
    e.at = static_cast<Timestamp>(
        faults.NextBounded(static_cast<uint64_t>(last_inject_at + 1)));
    e.tree_seed = faults.NextUint64();
    s.events.push_back(std::move(e));
  }

  // ---- churn: mid-run submits are select-project ONLY (see above); about
  // half are removed again before the end.
  WorkloadOptions churn_opt = wopt;
  churn_opt.seed = churn.NextUint64();
  churn_opt.aggregate_fraction = 0.0;
  churn_opt.join_fraction = 0.0;
  QueryWorkloadGenerator churn_gen(&catalog, churn_opt);
  int num_churn = static_cast<int>(
      churn.NextBounded(static_cast<uint64_t>(options.max_churn_queries + 1)));
  for (int i = 0; i < num_churn; ++i) {
    Timestamp submit_at = static_cast<Timestamp>(
        churn.NextBounded(static_cast<uint64_t>(last_inject_at + 1)));
    DstEvent submit;
    submit.type = DstEventType::kSubmitQuery;
    submit.at = submit_at;
    submit.query.tag = StrFormat("c%d", i);
    submit.query.cql = churn_gen.NextCql();
    submit.query.user = static_cast<NodeId>(
        churn.NextBounded(static_cast<uint64_t>(s.num_nodes)));
    s.events.push_back(std::move(submit));

    if (churn.NextBool(0.5)) {
      DstEvent remove;
      remove.type = DstEventType::kRemoveQuery;
      remove.at = submit_at + 1 + static_cast<Timestamp>(churn.NextBounded(
                                      static_cast<uint64_t>(
                                          last_inject_at - submit_at + 1)));
      remove.target_tag = StrFormat("c%d", i);
      s.events.push_back(std::move(remove));
    }
  }

  // Stable so ties keep the per-concern generation order — determinism.
  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const DstEvent& a, const DstEvent& b) {
                     return a.at < b.at;
                   });
  return s;
}

}  // namespace cosmos
