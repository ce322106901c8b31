// Ablation abl-ft (DESIGN.md): data-layer availability under link failures
// — tuples lost with and without failure buffering, and the repair cost
// (control messages to reinstall subscription state), as a function of how
// many tree links fail during a replay.

#include <cstdio>

#include "cbn/network.h"
#include "common/random.h"
#include "overlay/spanning_tree.h"
#include "overlay/topology.h"
#include "query/parser.h"
#include "stream/sensor_dataset.h"

using namespace cosmos;

namespace {

struct Outcome {
  uint64_t delivered = 0;
  uint64_t lost = 0;
  uint64_t recovered = 0;
  uint64_t repair_control_msgs = 0;
};

Outcome Run(bool buffering, int num_failures, int num_nodes) {
  TopologyOptions topo_opts;
  topo_opts.num_nodes = num_nodes;
  topo_opts.ba_edges_per_node = 3;
  topo_opts.seed = 5;
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  auto tree = DisseminationTree::FromEdges(
                  num_nodes, *MinimumSpanningTree(topo.graph))
                  .value();
  // Flooded and pruned by covering, the regime its published
  // repair-message column was measured in: a repair reinstalls every
  // subscription network-wide.
  NetworkOptions opts;
  opts.advertisement_scoping = false;
  opts.covering_prune = true;
  opts.buffer_on_failure = buffering;
  ContentBasedNetwork net(tree, opts);

  SensorDatasetOptions sopts;
  sopts.num_stations = 8;
  sopts.duration = 30 * kMinute;
  SensorDataset sensors(sopts);

  Outcome out;
  Rng rng(17);
  std::vector<ContentBasedNetwork::Publisher> publisher;
  for (int k = 0; k < sopts.num_stations; ++k) {
    publisher.push_back(net.Advertise(
        static_cast<NodeId>(rng.NextBounded(num_nodes)),
        SensorDataset::StreamName(k)));
  }
  for (int i = 0; i < 40; ++i) {
    Profile p;
    p.AddStream(SensorDataset::StreamName(
        static_cast<int>(rng.NextBounded(sopts.num_stations))));
    net.Subscribe(static_cast<NodeId>(rng.NextBounded(num_nodes)), p,
                  [&out](const std::string&, const Tuple&) {
                    ++out.delivered;
                  });
  }

  auto replay = sensors.MakeReplay();
  int streamed = 0;
  int total = sopts.num_stations * 60;
  int fail_at = total / 3;
  while (auto t = replay->Next()) {
    if (streamed == fail_at) {
      Rng fail_rng(23);
      for (int f = 0; f < num_failures; ++f) {
        const Edge& e = net.tree().edges()[fail_rng.NextBounded(
            net.tree().edges().size())];
        (void)net.FailLink(e.u, e.v);
      }
    }
    int station = static_cast<int>(t->value(0).AsInt64());
    net.Publish(publisher[station], *t);
    ++streamed;
    if (streamed == 2 * total / 3) {
      uint64_t before = net.control_messages();
      (void)net.Repair(topo.graph);
      out.repair_control_msgs = net.control_messages() - before;
    }
  }
  out.lost = net.lost_datagrams();
  out.recovered = net.recovered_datagrams();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int num_nodes = argc > 1 ? std::atoi(argv[1]) : 100;
  std::printf("# Ablation: data-layer fault tolerance (%d-node tree, 8 "
              "streams, 40 subscriptions)\n",
              num_nodes);
  std::printf("%-10s %-10s %12s %10s %12s %14s\n", "failures", "buffering",
              "delivered", "lost", "recovered", "repair msgs");
  for (int failures : {1, 2, 4}) {
    for (bool buffering : {false, true}) {
      Outcome o = Run(buffering, failures, num_nodes);
      std::printf("%-10d %-10s %12llu %10llu %12llu %14llu\n", failures,
                  buffering ? "on" : "off",
                  static_cast<unsigned long long>(o.delivered),
                  static_cast<unsigned long long>(o.lost),
                  static_cast<unsigned long long>(o.recovered),
                  static_cast<unsigned long long>(o.repair_control_msgs));
    }
  }
  return 0;
}
