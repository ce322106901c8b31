// The telemetry subsystem: instrument registry, event tracer and snapshot
// algebra, plus the instrumentation wired through the CBN / SPE / system.

#include "telemetry/registry.h"

#include <gtest/gtest.h>

#include "cbn/network.h"
#include "core/system.h"
#include "overlay/spanning_tree.h"
#include "overlay/topology.h"
#include "sim/simulator.h"
#include "stream/sensor_dataset.h"
#include "telemetry/snapshot.h"
#include "telemetry/trace.h"

namespace cosmos {
namespace {

TEST(MetricsRegistry, HandlesAreStableAndNamed) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("a.count");
  c->Increment();
  c->Add(4);
  // Same name returns the same instrument.
  EXPECT_EQ(registry.GetCounter("a.count"), c);
  EXPECT_EQ(c->value(), 5u);
  Gauge* g = registry.GetGauge("a.level");
  g->Set(2.5);
  g->Add(-1.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("a.level")->value(), 1.5);
  EXPECT_EQ(registry.num_instruments(), 2u);

  EXPECT_EQ(registry.FindCounter("a.count"), c);
  EXPECT_EQ(registry.FindCounter("missing"), nullptr);
  EXPECT_EQ(registry.FindGauge("missing"), nullptr);
  EXPECT_EQ(registry.FindHistogram("missing"), nullptr);

  registry.ResetAll();
  EXPECT_EQ(c->value(), 0u);  // handle stays valid
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
}

TEST(MetricsRegistry, LabeledFamilies) {
  EXPECT_EQ(MetricsRegistry::LabeledName("cbn.forwarded_bytes", "stream",
                                         "sensor_00"),
            "cbn.forwarded_bytes{stream=sensor_00}");
  EXPECT_EQ(MetricsRegistry::LabelValue(
                "cbn.forwarded_bytes{stream=sensor_00}", "stream"),
            "sensor_00");
  EXPECT_EQ(MetricsRegistry::LabelValue("cbn.forwards", "stream"), "");

  MetricsRegistry registry;
  registry.GetCounter("cbn.published", "stream", "a")->Add(3);
  registry.GetCounter("cbn.published", "stream", "b")->Add(7);
  registry.GetCounter("cbn.forwards");
  auto names = registry.CounterNamesWithLabel("stream");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "cbn.published{stream=a}");
  EXPECT_EQ(names[1], "cbn.published{stream=b}");
}

TEST(Histogram, Log2BucketsAndPercentiles) {
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);
  h.Observe(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.max(), 1000u);
  // v == 0 lands in bucket 0 (upper bound 0); v in [2^(i-1), 2^i - 1] in
  // bucket i.
  EXPECT_EQ(h.buckets()[0], 1u);  // 0
  EXPECT_EQ(h.buckets()[1], 1u);  // 1
  EXPECT_EQ(h.buckets()[2], 2u);  // 2, 3
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  // 4 of 5 observations are <= 3, so p80 resolves to bucket 2's bound.
  EXPECT_EQ(h.PercentileUpperBound(0.8), 3u);
  EXPECT_GE(h.PercentileUpperBound(1.0), 1000u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.PercentileUpperBound(0.5), 0u);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer;
  tracer.Instant("cat", "point", 1);
  tracer.Complete("cat", "slice", 1, 0, 10);
  { Tracer::Span span = tracer.BeginSpan("cat", "work", 2); }
  EXPECT_EQ(tracer.num_events(), 0u);
}

TEST(Tracer, RecordsInstantsSlicesAndSpans) {
  Tracer tracer;
  tracer.Enable();
  Timestamp now = 0;
  tracer.SetClock([&now] { return now; });

  tracer.Instant("cbn", "publish", 3, {{"stream", Tracer::ArgString("s")}});
  tracer.Complete("cbn", "hop", 4, /*ts=*/10, /*dur=*/5);
  now = 100;
  {
    Tracer::Span span = tracer.BeginSpan("spe", "eval", 7);
    span.AddArg("query", Tracer::ArgString("q1"));
    now = 250;
  }
  ASSERT_EQ(tracer.num_events(), 3u);
  const auto& events = tracer.events();
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[0].tid, 3);
  EXPECT_EQ(events[1].phase, 'X');
  EXPECT_EQ(events[1].ts, 10);
  EXPECT_EQ(events[1].dur, 5);
  EXPECT_EQ(events[2].phase, 'X');
  EXPECT_EQ(events[2].ts, 100);
  EXPECT_EQ(events[2].dur, 150);
  EXPECT_EQ(events[2].tid, 7);

  tracer.Clear();
  EXPECT_EQ(tracer.num_events(), 0u);
}

TEST(Tracer, ChromeTraceJsonShape) {
  Tracer tracer;
  tracer.Enable();
  tracer.Instant("cbn", "publish", 0);
  tracer.Complete("cbn", "hop", 2, 5, 3,
                  {{"stream", Tracer::ArgString("a\"b")}, {"from", "1"}});
  std::string json = tracer.ToChromeTraceJson();
  // The trace_event envelope chrome://tracing and Perfetto load.
  EXPECT_NE(json.find("{\"traceEvents\":"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":3"), std::string::npos);
  // Args render as a JSON object with escaped string values.
  EXPECT_NE(json.find("\"stream\":\"a\\\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"from\":1"), std::string::npos);
}

TEST(Tracer, ArgStringEscapes) {
  EXPECT_EQ(Tracer::ArgString("plain"), "\"plain\"");
  EXPECT_EQ(Tracer::ArgString("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(Tracer::ArgString("line\nbreak"), "\"line\\nbreak\"");
}

TEST(Tracer, LogicalClockTicksWithoutAClock) {
  Tracer tracer;
  tracer.Enable();
  tracer.Instant("c", "a", 0);
  tracer.Instant("c", "b", 0);
  ASSERT_EQ(tracer.num_events(), 2u);
  EXPECT_LT(tracer.events()[0].ts, tracer.events()[1].ts);
}

TEST(Snapshot, DeltaAndRates) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("x.count");
  Gauge* g = registry.GetGauge("x.level");
  Histogram* h = registry.GetHistogram("x.sizes");

  c->Add(10);
  g->Set(1.0);
  h->Observe(4);
  MetricsSnapshot before = TakeSnapshot(registry, kSecond);

  c->Add(30);
  g->Set(9.0);
  h->Observe(8);
  h->Observe(8);
  MetricsSnapshot after = TakeSnapshot(registry, 3 * kSecond);

  EXPECT_EQ(after.CounterValue("x.count"), 40u);
  EXPECT_EQ(after.CounterValue("missing"), 0u);
  // 30 new counts over 2 virtual seconds.
  EXPECT_DOUBLE_EQ(after.CounterRate(before, "x.count"), 15.0);

  MetricsSnapshot delta = SnapshotDelta(after, before);
  EXPECT_EQ(delta.CounterValue("x.count"), 30u);
  // Gauges are instantaneous: delta keeps the later value.
  EXPECT_DOUBLE_EQ(delta.GaugeValue("x.level"), 9.0);
  EXPECT_EQ(delta.histograms.at("x.sizes").count, 2u);
  EXPECT_EQ(delta.at, after.at);

  std::string json = SnapshotToJson(after);
  EXPECT_NE(json.find("\"x.count\": 40"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(Snapshot, SeriesServesConsecutiveDeltas) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("n");
  SnapshotSeries series(&registry);
  c->Add(5);
  series.Capture(kSecond);
  c->Add(7);
  series.Capture(2 * kSecond);
  EXPECT_EQ(series.size(), 2u);
  EXPECT_EQ(series.latest().CounterValue("n"), 12u);
  EXPECT_EQ(series.LatestDelta().CounterValue("n"), 7u);
  EXPECT_NE(series.ToJson().find("\"n\": 12"), std::string::npos);
}

// ---- one event ledger in the CBN ----

// Sum of a stream-labeled counter family, e.g. every cbn.dropped{stream=*}.
uint64_t SumFamily(const MetricsRegistry& metrics, const std::string& family) {
  uint64_t total = 0;
  for (const auto& [name, c] : metrics.counters()) {
    if (name.rfind(family + "{", 0) == 0) total += c->value();
  }
  return total;
}

uint64_t CounterValue(const MetricsRegistry& metrics, const std::string& name) {
  const Counter* c = metrics.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

TEST(CbnLedger, OneEventStreamFeedsEveryReader) {
  // Chain 0-1-2-3 inside the overlay square 0-1-2-3-0: failing link 1-2
  // cuts off {2, 3}, and Repair() splices in 3-0.
  Graph overlay(4);
  ASSERT_TRUE(overlay.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(overlay.AddEdge(1, 2, 1.0).ok());
  ASSERT_TRUE(overlay.AddEdge(2, 3, 1.0).ok());
  ASSERT_TRUE(overlay.AddEdge(3, 0, 2.0).ok());
  auto schema = std::make_shared<Schema>(
      "s", std::vector<AttributeDef>{{"temp", ValueType::kDouble, -10, 40}});

  for (bool buffer_on_failure : {true, false}) {
    for (bool attached : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "buffer_on_failure=" << buffer_on_failure
                   << " attached=" << attached);
      NetworkOptions options;
      options.buffer_on_failure = buffer_on_failure;
      ContentBasedNetwork net(
          DisseminationTree::FromEdges(
              4, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{2, 3, 1.0}})
              .value(),
          options);
      MetricsRegistry registry;
      Tracer tracer;
      tracer.Enable();
      net.SetTelemetry(attached ? &registry : nullptr, &tracer);
      const MetricsRegistry& ledger = net.metrics();
      EXPECT_EQ(&ledger == &registry, attached);

      Profile whole;
      whole.AddStream("s");
      net.Subscribe(1, whole, nullptr);
      net.Subscribe(3, whole, nullptr);
      auto pub = net.Advertise(0, "s");
      Timestamp ts = 0;
      auto publish = [&] {
        net.Publish(pub, Tuple(schema, {Value(20.0)}, ++ts));
      };
      publish();
      ASSERT_TRUE(net.FailLink(1, 2).ok());
      publish();
      publish();
      ASSERT_TRUE(net.Repair(overlay).ok());
      publish();

      // The tracer's cbn events, per kind, equal the counters per kind.
      std::map<std::string, uint64_t> traced;
      uint64_t traced_deliveries = 0;
      for (const Tracer::Event& ev : tracer.events()) {
        if (ev.category != "cbn") continue;
        ++traced[ev.name];
        for (const auto& [key, value] : ev.args) {
          if (key == "count") traced_deliveries += std::stoull(value);
        }
      }
      EXPECT_EQ(traced["publish"], 4u);
      EXPECT_EQ(traced["publish"], SumFamily(ledger, "cbn.published"));
      EXPECT_EQ(traced["hop"], CounterValue(ledger, "cbn.forwards") +
                                   CounterValue(ledger, "cbn.recovery_forwards"));
      EXPECT_EQ(traced["deliver"], SumFamily(ledger, "cbn.delivered") +
                                       SumFamily(ledger, "cbn.delivered_recovery"));
      EXPECT_EQ(traced_deliveries, CounterValue(ledger, "cbn.deliveries"));
      EXPECT_EQ(traced["buffer"], SumFamily(ledger, "cbn.buffered"));
      EXPECT_EQ(traced["drop"], SumFamily(ledger, "cbn.dropped"));
      EXPECT_EQ(traced["recover"], SumFamily(ledger, "cbn.flushed"));
      EXPECT_EQ(traced["buffer"], buffer_on_failure ? 2u : 0u);
      EXPECT_EQ(traced["drop"], buffer_on_failure ? 0u : 2u);
      EXPECT_EQ(traced["recover"], traced["buffer"]);
      EXPECT_EQ(CounterValue(ledger, "cbn.recovery_forwards") > 0,
                buffer_on_failure);

      // Every view reads the same counters.
      EXPECT_EQ(net.total_datagrams_forwarded(),
                CounterValue(ledger, "cbn.forwards"));
      EXPECT_EQ(net.total_bytes(), CounterValue(ledger, "cbn.forwarded_bytes"));
      EXPECT_EQ(net.total_deliveries(), CounterValue(ledger, "cbn.deliveries"));
      EXPECT_EQ(net.control_messages(),
                CounterValue(ledger, "cbn.control_messages"));
      EXPECT_EQ(net.lost_datagrams(), SumFamily(ledger, "cbn.dropped"));
      EXPECT_EQ(net.recovered_datagrams(), SumFamily(ledger, "cbn.flushed"));
      ASSERT_EQ(net.published_bytes_by_stream().size(), 1u);
      EXPECT_EQ(net.published_bytes_by_stream().at("s"),
                CounterValue(ledger, "cbn.published_bytes{stream=s}"));
      // link_stats() holds exactly the current tree's links with traffic;
      // the repair removed 1-2, whose counters keep their history.
      EXPECT_EQ(net.link_stats().count({1, 2}), 0u);
      EXPECT_GT(CounterValue(ledger, "cbn.link_datagrams{link=1-2}"), 0u);
      size_t tree_links_with_traffic = 0;
      for (const auto& [name, c] : ledger.counters()) {
        if (name.rfind("cbn.link_datagrams{", 0) != 0) continue;
        const std::string link = MetricsRegistry::LabelValue(name, "link");
        const NodeId u = std::stoi(link.substr(0, link.find('-')));
        const NodeId v = std::stoi(link.substr(link.find('-') + 1));
        if (net.tree().HasEdge(u, v)) ++tree_links_with_traffic;
      }
      EXPECT_EQ(net.link_stats().size(), tree_links_with_traffic);
      for (const auto& [key, stats] : net.link_stats()) {
        const std::string link = std::to_string(key.first) + "-" +
                                 std::to_string(key.second);
        EXPECT_EQ(stats.datagrams,
                  CounterValue(ledger, "cbn.link_datagrams{link=" + link + "}"));
        EXPECT_EQ(stats.bytes,
                  CounterValue(ledger, "cbn.link_bytes{link=" + link + "}"));
      }
    }
  }
}

// ---- end-to-end instrumentation through the system ----

class TelemetryIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TopologyOptions opts;
    opts.num_nodes = 12;
    opts.ba_edges_per_node = 3;
    opts.seed = 5;
    topo_ = GenerateBarabasiAlbert(opts);
  }

  Topology topo_;
};

TEST_F(TelemetryIntegrationTest, CountersAndTraceFlowThroughTheStack) {
  auto tree = DisseminationTree::FromEdges(
                  12, *MinimumSpanningTree(topo_.graph))
                  .value();
  Simulator sim;
  MetricsRegistry metrics;
  Tracer tracer;
  tracer.Enable();
  SystemOptions options;
  options.metrics = &metrics;
  options.tracer = &tracer;
  CosmosSystem system(std::move(tree), options, &sim);
  system.SetOverlay(topo_.graph);

  SensorDatasetOptions sopts;
  sopts.num_stations = 2;
  sopts.duration = 2 * kMinute;
  SensorDataset sensors(sopts);
  for (int k = 0; k < 2; ++k) {
    ASSERT_TRUE(system
                    .RegisterSource(sensors.SchemaOf(k),
                                    sensors.RatePerStation(), k)
                    .ok());
  }
  ASSERT_TRUE(system.AddProcessor(5).ok());
  int hits = 0;
  ASSERT_TRUE(system
                  .SubmitQuery("SELECT ambient_temperature FROM sensor_01",
                               /*user=*/11,
                               [&](const std::string&, const Tuple&) {
                                 ++hits;
                               })
                  .ok());
  auto replay = sensors.MakeReplay();
  ASSERT_TRUE(system.Replay(*replay).ok());
  sim.Run();
  ASSERT_GT(hits, 0);

  // CBN stream families.
  const Counter* published = metrics.FindCounter(
      MetricsRegistry::LabeledName("cbn.published", "stream", "sensor_01"));
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->value(),
            system.rate_monitor().TotalTuples("sensor_01"));
  // Steady-state totals agree with the network's own accounting.
  EXPECT_EQ(metrics.FindCounter("cbn.forwards")->value(),
            system.network().total_datagrams_forwarded());
  EXPECT_EQ(metrics.FindCounter("cbn.forwarded_bytes")->value(),
            system.network().total_bytes());
  // The measured-bytes ledger is maintained for the SelfTuner.
  EXPECT_GT(system.network().published_bytes_by_stream().at("sensor_01"),
            0u);

  // SPE counters on the processor's node.
  const Counter* tuples_in =
      metrics.FindCounter(MetricsRegistry::LabeledName("spe.tuples_in",
                                                       "node", "5"));
  ASSERT_NE(tuples_in, nullptr);
  EXPECT_GT(tuples_in->value(), 0u);
  // Query-layer counters.
  EXPECT_EQ(metrics.FindCounter("core.queries_submitted")->value(), 1u);
  EXPECT_EQ(metrics.FindCounter("core.groups_formed")->value(), 1u);
  // Simulator instrumentation ticked with virtual time.
  EXPECT_GT(metrics.FindCounter("sim.events")->value(), 0u);
  EXPECT_GT(metrics.FindGauge("sim.now_us")->value(), 0.0);

  // The optimizer records its runs through SelfTune.
  ASSERT_TRUE(system.SelfTune().ok());
  EXPECT_EQ(metrics.FindCounter("optimizer.runs")->value(), 1u);

  // The trace carries CBN hops, SPE evaluations and the optimizer slice,
  // stamped with virtual time.
  bool saw_hop = false, saw_eval = false, saw_optimize = false;
  for (const auto& e : tracer.events()) {
    if (e.name == "hop") saw_hop = true;
    if (e.name == "eval") saw_eval = true;
    if (e.name == "optimize") saw_optimize = true;
  }
  EXPECT_TRUE(saw_hop);
  EXPECT_TRUE(saw_eval);
  EXPECT_TRUE(saw_optimize);
}

TEST_F(TelemetryIntegrationTest, NullTelemetryCostsNothingAndStillWorks) {
  auto tree = DisseminationTree::FromEdges(
                  12, *MinimumSpanningTree(topo_.graph))
                  .value();
  CosmosSystem system(std::move(tree));  // no metrics, no tracer
  SensorDatasetOptions sopts;
  sopts.num_stations = 1;
  sopts.duration = kMinute;
  SensorDataset sensors(sopts);
  ASSERT_TRUE(
      system.RegisterSource(sensors.SchemaOf(0), sensors.RatePerStation(), 0)
          .ok());
  ASSERT_TRUE(system.AddProcessor(3).ok());
  int hits = 0;
  ASSERT_TRUE(system
                  .SubmitQuery("SELECT ambient_temperature FROM sensor_00",
                               /*user=*/7,
                               [&](const std::string&, const Tuple&) {
                                 ++hits;
                               })
                  .ok());
  auto replay = sensors.MakeReplay();
  ASSERT_TRUE(system.Replay(*replay).ok());
  EXPECT_GT(hits, 0);
  // The measured-bytes ledger still works without a registry.
  EXPECT_GT(system.network().published_bytes_by_stream().at("sensor_00"),
            0u);
}

}  // namespace
}  // namespace cosmos
