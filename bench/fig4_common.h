#ifndef COSMOS_BENCH_FIG4_COMMON_H_
#define COSMOS_BENCH_FIG4_COMMON_H_

// Shared experiment harness for Figure 4(a) Benefit Ratio and Figure 4(b)
// Grouping Ratio (paper §5):
//
//   - 63 SensorScope-like streams (synthetic stand-in, DESIGN.md),
//   - random select-project queries whose stream / window / predicate
//     choices follow uniform or zipf(theta) distributions,
//   - a 1000-node power-law (Barabási–Albert, BRITE stand-in) topology
//     with an MST dissemination tree,
//   - queries inserted incrementally into the greedy grouping engine;
//     metrics sampled at 2000-query checkpoints,
//   - averaged over repetitions with distinct seeds (paper: 20).
//
// Benefit ratio = 1 - merged_cost / unmerged_cost, where cost is the
// result-delivery communication cost over the dissemination tree:
//   unmerged: each query's result stream flows the full path from the
//             processor to its user at rate C(q);
//   merged:   each group's stream flows once per link, at
//             min(C(rep), sum of member rates downstream) — the CBN splits
//             the shared stream at branch points and the re-tightened
//             profiles thin it toward each user (Figure 3b).

#include <cstdio>
#include <map>
#include <vector>

#include "common/string_util.h"
#include "core/grouping.h"
#include "core/workload.h"
#include "overlay/dissemination_tree.h"
#include "overlay/spanning_tree.h"
#include "overlay/topology.h"
#include "stream/sensor_dataset.h"

namespace cosmos::bench {

struct Fig4Options {
  int num_nodes = 1000;
  int max_queries = 10000;
  int snapshot_step = 2000;
  int repetitions = 3;  // paper used 20; override via argv[1]
  std::vector<double> thetas = {0.0, 1.0, 1.5, 2.0};
  uint64_t seed = 42;
};

struct Fig4Cell {
  double benefit_ratio = 0.0;
  double grouping_ratio = 0.0;
};

// results[theta_index][snapshot_index], averaged over repetitions.
using Fig4Table = std::vector<std::vector<Fig4Cell>>;

inline Fig4Table RunFig4(const Fig4Options& options) {
  const int num_snapshots = options.max_queries / options.snapshot_step;
  Fig4Table table(options.thetas.size(),
                  std::vector<Fig4Cell>(num_snapshots));

  for (size_t ti = 0; ti < options.thetas.size(); ++ti) {
    for (int rep = 0; rep < options.repetitions; ++rep) {
      uint64_t run_seed =
          options.seed + 1000003ULL * rep + 7919ULL * ti;

      // Topology: BA power law + MST dissemination tree, processor at 0.
      TopologyOptions topo_opts;
      topo_opts.num_nodes = options.num_nodes;
      topo_opts.seed = run_seed;
      Topology topo = GenerateBarabasiAlbert(topo_opts);
      auto mst = MinimumSpanningTree(topo.graph);
      auto tree = DisseminationTree::FromEdges(options.num_nodes, *mst);

      // Parent pointers toward the processor (node 0).
      std::vector<NodeId> parent(options.num_nodes, -1);
      {
        std::vector<NodeId> stack{0};
        std::vector<bool> seen(options.num_nodes, false);
        seen[0] = true;
        while (!stack.empty()) {
          NodeId u = stack.back();
          stack.pop_back();
          for (const auto& [v, w] : tree->Neighbors(u)) {
            if (!seen[v]) {
              seen[v] = true;
              parent[v] = u;
              stack.push_back(v);
            }
          }
        }
      }

      // Streams.
      Catalog catalog;
      SensorDataset sensors;
      (void)sensors.RegisterAll(catalog);

      GroupingEngine engine(&catalog);
      WorkloadOptions wl;
      wl.zipf_theta = options.thetas[ti];
      wl.seed = run_seed ^ 0xABCDEF;
      QueryWorkloadGenerator gen(&catalog, wl);

      Rng user_rng(run_seed ^ 0x5555);
      struct QueryInfo {
        NodeId user;
        double rate;
      };
      std::map<std::string, QueryInfo> queries;

      int inserted = 0;
      for (int snap = 0; snap < num_snapshots; ++snap) {
        while (inserted < (snap + 1) * options.snapshot_step) {
          std::string id = StrFormat("q%d", inserted);
          auto analyzed =
              ParseAndAnalyze(gen.NextCql(), catalog, "result_" + id);
          if (!analyzed.ok()) continue;  // workload always parses; safety
          auto placed = engine.AddQuery(id, *analyzed);
          if (!placed.ok()) continue;
          QueryInfo info;
          info.user = static_cast<NodeId>(
              user_rng.NextBounded(options.num_nodes));
          info.rate =
              engine.rate_estimator().EstimateOutputRate(*analyzed);
          queries.emplace(id, info);
          ++inserted;
        }

        // ---- communication cost at this checkpoint ----
        double unmerged = 0.0;
        for (const auto& [id, info] : queries) {
          int depth = 0;
          for (NodeId v = info.user; v != 0 && v != -1; v = parent[v]) {
            ++depth;
          }
          unmerged += info.rate * depth;
        }
        double merged = 0.0;
        for (const auto& [gid, group] : engine.groups()) {
          // Accumulate member demand per link (link keyed by child node).
          std::map<NodeId, double> demand;
          for (const auto& mid : group.member_ids) {
            const QueryInfo& info = queries.at(mid);
            for (NodeId v = info.user; v != 0 && v != -1; v = parent[v]) {
              demand[v] += queries.at(mid).rate;
            }
            (void)info;
          }
          for (const auto& [link, sum] : demand) {
            merged += std::min(group.representative_rate, sum);
          }
        }
        Fig4Cell& cell = table[ti][snap];
        if (unmerged > 0) {
          cell.benefit_ratio += (1.0 - merged / unmerged);
        }
        cell.grouping_ratio += engine.GroupingRatio();
      }
    }
    for (auto& cell : table[ti]) {
      cell.benefit_ratio /= options.repetitions;
      cell.grouping_ratio /= options.repetitions;
    }
  }
  return table;
}

inline const char* ThetaLabel(double theta) {
  if (theta == 0.0) return "uniform";
  if (theta == 1.0) return "zipf1.0";
  if (theta == 1.5) return "zipf1.5";
  if (theta == 2.0) return "zipf2";
  return "zipf?";
}

}  // namespace cosmos::bench

#endif  // COSMOS_BENCH_FIG4_COMMON_H_
