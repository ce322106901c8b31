#include "core/statistics.h"

#include <gtest/gtest.h>

#include "core/system.h"
#include "stream/sensor_dataset.h"

namespace cosmos {
namespace {

TEST(RateMonitor, EmptyMonitorReportsZero) {
  RateMonitor m;
  EXPECT_DOUBLE_EQ(m.TupleRate("s", 100), 0.0);
  EXPECT_EQ(m.WindowCount("s", 100), 0u);
  EXPECT_EQ(m.TotalTuples("s"), 0u);
  EXPECT_TRUE(m.ObservedStreams().empty());
}

TEST(RateMonitor, SteadyRateMeasuredCorrectly) {
  RateMonitor m(kMinute);
  // 2 tuples/second for 30 seconds.
  for (int i = 0; i < 60; ++i) {
    m.Record("s", i * kSecond / 2);
  }
  Timestamp now = 30 * kSecond;
  EXPECT_NEAR(m.TupleRate("s", now), 2.0, 0.1);
  EXPECT_EQ(m.TotalTuples("s"), 60u);
}

TEST(RateMonitor, WindowForgetsOldTraffic) {
  RateMonitor m(10 * kSecond);
  for (int i = 0; i < 10; ++i) m.Record("s", i * kSecond);
  EXPECT_EQ(m.WindowCount("s", 9 * kSecond), 10u);
  // 30 seconds later, everything has aged out.
  EXPECT_EQ(m.WindowCount("s", 40 * kSecond), 0u);
  EXPECT_DOUBLE_EQ(m.TupleRate("s", 40 * kSecond), 0.0);
  // Lifetime totals survive.
  EXPECT_EQ(m.TotalTuples("s"), 10u);
}

TEST(RateMonitor, BurstThenIdleDecays) {
  RateMonitor m(10 * kSecond);
  for (int i = 0; i < 100; ++i) m.Record("s", kSecond + i);  // burst
  double during = m.TupleRate("s", kSecond + 100);
  double later = m.TupleRate("s", 8 * kSecond);
  EXPECT_GT(during, later);
}

TEST(RateMonitor, PerStreamIsolation) {
  RateMonitor m(kMinute);
  m.Record("a", 0);
  m.Record("a", kSecond);
  m.Record("b", 0);
  EXPECT_GT(m.TupleRate("a", kSecond), m.TupleRate("b", kSecond));
  EXPECT_EQ(m.ObservedStreams().size(), 2u);
}

TEST(RateMonitor, OutOfOrderNearWindowEdgeStillCounted) {
  RateMonitor m(10 * kSecond);
  m.Record("s", 20 * kSecond);
  // Arrives late but still inside the window ending at max_ts: counted.
  m.Record("s", 11 * kSecond);
  EXPECT_EQ(m.WindowCount("s", 20 * kSecond), 2u);
  EXPECT_EQ(m.TotalTuples("s"), 2u);
}

TEST(RateMonitor, OutOfOrderOlderThanWindowNeverLodges) {
  RateMonitor m(10 * kSecond);
  m.Record("s", 20 * kSecond);
  // Arrives late AND already outside the window: it must not join the
  // window deque (it would sit behind the newer entry, beyond the reach of
  // front pruning, and inflate window stats for another full window).
  m.Record("s", 5 * kSecond);
  EXPECT_EQ(m.WindowCount("s", 20 * kSecond), 1u);
  // The lifetime total still counts it.
  EXPECT_EQ(m.TotalTuples("s"), 2u);
}

TEST(RateMonitor, SpanSecondsClipsToObservedDataEarlyOn) {
  RateMonitor m(10 * kMinute);
  // 5 tuples over 4 seconds, queried right away: the averaging span must be
  // the 4 observed seconds, not the 10-minute window (which would dilute
  // the rate toward zero), and never below 1 second.
  for (int i = 0; i < 5; ++i) m.Record("s", i * kSecond);
  EXPECT_NEAR(m.TupleRate("s", 4 * kSecond), 1.25, 0.01);
  // A single sample at `now` spans the 1-second floor: finite rate.
  RateMonitor single(10 * kMinute);
  single.Record("t", 7 * kSecond);
  EXPECT_NEAR(single.TupleRate("t", 7 * kSecond), 1.0, 1e-9);
}

TEST(RateMonitor, MaxDriftRatioComparesObservedToCatalog) {
  Catalog catalog;
  (void)catalog.RegisterStream(
      std::make_shared<Schema>(
          "s", std::vector<AttributeDef>{{"x", ValueType::kInt64}}),
      /*rate=*/1.0);
  RateMonitor m(kMinute);
  EXPECT_DOUBLE_EQ(m.MaxDriftRatio(catalog, 0), 0.0);
  // Observed ~3 tuples/sec against an estimate of 1 => drift ~2.0.
  for (int i = 0; i < 90; ++i) m.Record("s", i * kSecond / 3);
  double drift = m.MaxDriftRatio(catalog, 30 * kSecond);
  EXPECT_NEAR(drift, 2.0, 0.2);
  // Streams unknown to the catalog are ignored.
  for (int i = 0; i < 50; ++i) m.Record("mystery", i * kSecond);
  EXPECT_NEAR(m.MaxDriftRatio(catalog, 30 * kSecond), drift, 1e-9);
  // After recalibration the drift collapses.
  EXPECT_EQ(m.CalibrateCatalog(catalog, 30 * kSecond), 1u);
  EXPECT_LT(m.MaxDriftRatio(catalog, 30 * kSecond), 0.01);
}

TEST(RateMonitor, CalibrateCatalogWritesObservedRates) {
  Catalog catalog;
  (void)catalog.RegisterStream(
      std::make_shared<Schema>(
          "s", std::vector<AttributeDef>{{"x", ValueType::kInt64}}),
      /*rate=*/999.0);
  RateMonitor m(kMinute);
  for (int i = 0; i < 20; ++i) m.Record("s", i * kSecond);
  m.Record("unknown_stream", 0);
  EXPECT_EQ(m.CalibrateCatalog(catalog, 19 * kSecond), 1u);
  EXPECT_NEAR(catalog.Lookup("s")->rate_tuples_per_sec, 1.0, 0.2);
}

TEST(RateMonitor, SystemObservesReplayAndCalibrates) {
  std::vector<Edge> edges = {{0, 1, 1.0}};
  CosmosSystem system(DisseminationTree::FromEdges(2, edges).value());
  SensorDatasetOptions sopts;
  sopts.num_stations = 2;
  sopts.duration = 10 * kMinute;
  sopts.sampling_period = 30 * kSecond;
  SensorDataset sensors(sopts);
  for (int k = 0; k < 2; ++k) {
    // Deliberately wrong initial estimates.
    ASSERT_TRUE(
        system.RegisterSource(sensors.SchemaOf(k), 123.0, 0).ok());
  }
  auto replay = sensors.MakeReplay();
  ASSERT_TRUE(system.Replay(*replay).ok());
  EXPECT_EQ(system.rate_monitor().TotalTuples("sensor_00"), 20u);
  EXPECT_EQ(system.CalibrateRates(), 2u);
  // True rate: one tuple per 30 seconds.
  EXPECT_NEAR(system.catalog().Lookup("sensor_00")->rate_tuples_per_sec,
              1.0 / 30.0, 0.01);
}

}  // namespace
}  // namespace cosmos
