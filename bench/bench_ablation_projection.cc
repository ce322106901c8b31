// Ablation abl-proj (DESIGN.md): early projection in the CBN (§3.1's
// extension of classic content-based networking) on vs. off. A traditional
// CBN filters but forwards whole datagrams; COSMOS projects away unneeded
// attributes at the first hop. Measures bytes moved for a sensor workload
// where subscribers want a few of the ~11 attributes.

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

uint64_t Run(bool early_projection, int num_queries) {
  TopologyOptions topo_opts;
  topo_opts.num_nodes = 100;
  topo_opts.seed = 3;
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  auto mst = MinimumSpanningTree(topo.graph);
  auto tree =
      DisseminationTree::FromEdges(topo_opts.num_nodes, *mst).value();

  NetworkOptions net_opts;
  net_opts.early_projection = early_projection;
  ContentBasedNetwork network(std::move(tree), net_opts);

  Catalog catalog;
  SensorDatasetOptions sopts;
  sopts.duration = 20 * kMinute;
  SensorDataset sensors(sopts);
  (void)sensors.RegisterAll(catalog);

  // Subscribers: random queries' source profiles at random nodes.
  WorkloadOptions wl;
  wl.zipf_theta = 1.0;
  wl.seed = 77;
  wl.max_projected = 2;  // narrow interests make projection matter
  QueryWorkloadGenerator gen(&catalog, wl);
  Rng rng(123);
  for (int i = 0; i < num_queries; ++i) {
    auto analyzed = ParseAndAnalyze(gen.NextCql(), catalog,
                                    StrFormat("r%d", i));
    if (!analyzed.ok()) continue;
    Profile profile = ComposeSourceProfile(*analyzed);
    NodeId node = static_cast<NodeId>(rng.NextBounded(topo_opts.num_nodes));
    network.Subscribe(node, std::move(profile), nullptr);
  }

  // Publish the sensor replay from per-station publisher nodes.
  Rng pub_rng(9);
  std::vector<ContentBasedNetwork::Publisher> publisher;
  for (int k = 0; k < sensors.num_stations(); ++k) {
    publisher.push_back(network.Advertise(
        static_cast<NodeId>(pub_rng.NextBounded(topo_opts.num_nodes)),
        SensorDataset::StreamName(k)));
  }
  auto replay = sensors.MakeReplay();
  while (auto t = replay->Next()) {
    int station = static_cast<int>(t->value(0).AsInt64());
    network.Publish(publisher[station], *t);
  }
  return network.total_bytes();
}

}  // namespace

int main(int argc, char** argv) {
  int num_queries = argc > 1 ? std::atoi(argv[1]) : 100;
  std::printf("# Ablation: early projection (100-node BA overlay, 63 "
              "sensor streams, %d subscriptions)\n",
              num_queries);
  uint64_t without = Run(false, num_queries);
  uint64_t with = Run(true, num_queries);
  std::printf("%-32s %16llu\n", "bytes, filter-only CBN",
              static_cast<unsigned long long>(without));
  std::printf("%-32s %16llu\n", "bytes, with early projection",
              static_cast<unsigned long long>(with));
  std::printf("early projection saves %.1f%% of transfer\n",
              100.0 * (1.0 - static_cast<double>(with) / without));
  return with <= without ? 0 : 1;
}
