// System option matrix: advertisement scoping and early projection
// exercised end-to-end through CosmosSystem.

#include <gtest/gtest.h>

#include "core/system.h"
#include "stream/sensor_dataset.h"

namespace cosmos {
namespace {

DisseminationTree ChainTree(int n) {
  std::vector<Edge> edges;
  for (int i = 0; i + 1 < n; ++i) edges.push_back(Edge{i, i + 1, 1.0});
  return DisseminationTree::FromEdges(n, edges).value();
}

int RunScenario(SystemOptions options) {
  SensorDatasetOptions sopts;
  sopts.num_stations = 3;
  sopts.duration = 10 * kMinute;
  SensorDataset sensors(sopts);
  CosmosSystem system(ChainTree(5), options);
  for (int k = 0; k < 3; ++k) {
    EXPECT_TRUE(system
                    .RegisterSource(sensors.SchemaOf(k),
                                    sensors.RatePerStation(), k)
                    .ok());
  }
  EXPECT_TRUE(system.AddProcessor(2).ok());
  int hits = 0;
  EXPECT_TRUE(system
                  .SubmitQuery(
                      "SELECT ambient_temperature FROM sensor_01 WHERE "
                      "ambient_temperature BETWEEN -100 AND 100",
                      4,
                      [&](const std::string&, const Tuple&) { ++hits; })
                  .ok());
  auto replay = sensors.MakeReplay();
  EXPECT_TRUE(system.Replay(*replay).ok());
  return hits;
}

TEST(SystemOptionsMatrix, AllCombinationsDeliverIdentically) {
  std::vector<int> results;
  for (bool adv : {false, true}) {
    for (bool proj : {false, true}) {
      SystemOptions options;
      options.network.advertisement_scoping = adv;
      options.network.early_projection = proj;
      results.push_back(RunScenario(options));
    }
  }
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0], 20);
  for (int r : results) {
    EXPECT_EQ(r, results[0]);
  }
}

TEST(SystemOptionsMatrix, AdvertisementScopingShrinksSystemTables) {
  size_t entries[2];
  for (int mode = 0; mode < 2; ++mode) {
    SystemOptions options;
    options.network.advertisement_scoping = (mode == 1);
    SensorDatasetOptions sopts;
    sopts.num_stations = 3;
    SensorDataset sensors(sopts);
    CosmosSystem system(ChainTree(12), options);
    for (int k = 0; k < 3; ++k) {
      (void)system.RegisterSource(sensors.SchemaOf(k),
                                  sensors.RatePerStation(), 0);
    }
    (void)system.AddProcessor(1);
    (void)system.SubmitQuery("SELECT ambient_temperature FROM sensor_00", 2,
                             nullptr);
    entries[mode] = system.network().TotalTableEntries();
  }
  EXPECT_LT(entries[1], entries[0]);
}

}  // namespace
}  // namespace cosmos
