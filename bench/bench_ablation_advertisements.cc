// Ablation abl-adv (DESIGN.md): cost of subscription state under four
// propagation regimes —
//   flood:       subscriptions installed network-wide, no pruning
//   covering:    flooding with covering-based pruning (classic CBN)
//   advertised:  advertisement-scoped installation (paper §2: sources and
//                processors advertise their streams, so interest state only
//                lives on publisher->subscriber paths), no pruning
//   advertised + covering: scoped, and pruned by covering along the paths
// Reports control messages and routing-table entries; data delivery is
// identical under all four (asserted).

#include <cstdio>

#include "cbn/network.h"
#include "common/string_util.h"
#include "core/profile_composer.h"
#include "core/workload.h"
#include "overlay/spanning_tree.h"
#include "overlay/topology.h"
#include "stream/sensor_dataset.h"

using namespace cosmos;

namespace {

struct Outcome {
  uint64_t control_messages = 0;
  size_t table_entries = 0;
  int deliveries = 0;
};

Outcome Run(int mode, int num_nodes, int num_subs) {
  TopologyOptions topo_opts;
  topo_opts.num_nodes = num_nodes;
  topo_opts.seed = 13;
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  auto tree = DisseminationTree::FromEdges(
                  num_nodes, *MinimumSpanningTree(topo.graph))
                  .value();
  NetworkOptions opts;
  opts.covering_prune = mode == 1 || mode == 3;
  opts.advertisement_scoping = mode >= 2;
  ContentBasedNetwork net(std::move(tree), opts);

  Catalog catalog;
  SensorDataset sensors;
  (void)sensors.RegisterAll(catalog);

  // Publishers at deterministic nodes.
  Rng pub_rng(7);
  std::vector<ContentBasedNetwork::Publisher> publisher;
  for (int k = 0; k < sensors.num_stations(); ++k) {
    publisher.push_back(
        net.Advertise(static_cast<NodeId>(pub_rng.NextBounded(num_nodes)),
                      SensorDataset::StreamName(k)));
  }

  WorkloadOptions wl;
  wl.zipf_theta = 1.0;
  wl.seed = 99;
  QueryWorkloadGenerator gen(&catalog, wl);
  Outcome out;
  Rng sub_rng(55);
  for (int i = 0; i < num_subs; ++i) {
    auto q = ParseAndAnalyze(gen.NextCql(), catalog,
                             StrFormat("r%d", i));
    if (!q.ok()) continue;
    net.Subscribe(static_cast<NodeId>(sub_rng.NextBounded(num_nodes)),
                  ComposeSourceProfile(*q),
                  [&out](const std::string&, const Tuple&) {
                    ++out.deliveries;
                  });
  }
  out.control_messages = net.control_messages();
  out.table_entries = net.TotalTableEntries();

  // Verify delivery equivalence with a short replay.
  SensorDatasetOptions sopts;
  sopts.duration = 10 * kMinute;
  SensorDataset data(sopts);
  auto replay = data.MakeReplay();
  while (auto t = replay->Next()) {
    int station = static_cast<int>(t->value(0).AsInt64());
    net.Publish(publisher[station], *t);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int num_nodes = argc > 1 ? std::atoi(argv[1]) : 200;
  int num_subs = argc > 2 ? std::atoi(argv[2]) : 150;
  std::printf("# Ablation: subscription propagation (%d nodes, 63 streams, "
              "%d subscriptions)\n",
              num_nodes, num_subs);
  std::printf("%-28s %16s %16s %14s\n", "regime", "control msgs",
              "table entries", "deliveries");

  const char* names[] = {"flood", "covering-prune", "advertised",
                         "advertised + covering"};
  Outcome outcomes[4];
  for (int mode = 0; mode < 4; ++mode) {
    outcomes[mode] = Run(mode, num_nodes, num_subs);
    std::printf("%-28s %16llu %16zu %14d\n", names[mode],
                static_cast<unsigned long long>(
                    outcomes[mode].control_messages),
                outcomes[mode].table_entries, outcomes[mode].deliveries);
  }
  bool equivalent = outcomes[0].deliveries == outcomes[1].deliveries &&
                    outcomes[1].deliveries == outcomes[2].deliveries &&
                    outcomes[2].deliveries == outcomes[3].deliveries;
  std::printf("\ndelivery identical across regimes: %s\n",
              equivalent ? "yes" : "NO (bug!)");
  std::printf("advertisement scoping keeps %.1f%% of flooded table state\n",
              100.0 * outcomes[2].table_entries /
                  std::max<size_t>(1, outcomes[0].table_entries));
  return equivalent ? 0 : 1;
}
