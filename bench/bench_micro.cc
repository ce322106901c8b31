// Hot-path microbenchmarks (google-benchmark): filter evaluation, profile
// covering, query parsing/analysis, containment, representative
// composition, window-join throughput, sliding-window MIN/MAX, CBN publish,
// and CBN forwarding (stream-partitioned index vs the pre-index linear
// scan).
//
// The forwarding, matching, telemetry and window-aggregate benchmarks feed
// BENCH_routing.json (see EXPERIMENTS.md and tools/check_bench.py):
//   bench_micro --benchmark_filter=<the filter in tools/check_bench.py>
//       --benchmark_out=BENCH_routing.json --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <optional>
#include <set>

#include "cbn/codec.h"
#include "cbn/covering.h"
#include "cbn/network.h"
#include "common/string_util.h"
#include "core/merger.h"
#include "core/profile_composer.h"
#include "overlay/spanning_tree.h"
#include "overlay/topology.h"
#include "spe/aggregate.h"
#include "spe/join.h"
#include "stream/auction_dataset.h"
#include "stream/sensor_dataset.h"

// Heap-allocation counter for the forwarding, aggregate and covering
// benchmarks: replacing the global operator new is the only way to observe
// the per-operation allocation count without intrusive instrumentation.
// new[]/delete[] forward here per the standard, so one pair suffices.
namespace {
std::atomic<uint64_t> g_allocation_count{0};
}  // namespace

// noinline keeps GCC from tracing malloc/free through the replaced
// operators and mis-reporting -Wmismatched-new-delete at call sites.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}

namespace cosmos {
namespace {

Tuple MakeSensorTuple(const std::shared_ptr<const Schema>& schema,
                      double temperature, Timestamp ts) {
  std::vector<Value> values;
  for (const auto& def : schema->attributes()) {
    if (def.name == "ambient_temperature") {
      values.emplace_back(temperature);
    } else if (def.type == ValueType::kInt64) {
      values.emplace_back(int64_t{1});
    } else {
      values.emplace_back(10.0);
    }
  }
  return Tuple(schema, std::move(values), ts);
}

void BM_FilterCovers(benchmark::State& state) {
  SensorDataset sensors;
  auto schema = sensors.SchemaOf(0);
  ConjunctiveClause clause;
  clause.ConstrainInterval("ambient_temperature",
                           Interval(10.0, false, 25.0, false));
  clause.ConstrainInterval("relative_humidity",
                           Interval(0.0, false, 60.0, false));
  Filter filter(schema->stream_name(), clause);
  Datagram d{schema->stream_name(), MakeSensorTuple(schema, 15.0, 1)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Covers(d));
  }
}
BENCHMARK(BM_FilterCovers);

// ProfileCovers on a covered pair shaped like ComposeSourceProfile output:
// each profile has a projection and two filters, so the check compares
// required-attribute lists and runs filter implication. Reports
// allocs_per_check, which the per-stream records keep at zero.
void BM_ProfileCovering(benchmark::State& state) {
  SensorDataset sensors;
  const std::string stream = sensors.SchemaOf(0)->stream_name();
  auto source_profile = [&stream](std::vector<std::string> projection,
                                  double temp_lo, double temp_hi,
                                  double hum_hi) {
    Profile p;
    p.AddStream(stream, std::move(projection));
    ConjunctiveClause temp;
    temp.ConstrainInterval("ambient_temperature",
                           Interval(temp_lo, false, temp_hi, false));
    p.AddFilter(Filter(stream, temp));
    ConjunctiveClause hum;
    hum.ConstrainInterval("relative_humidity",
                          Interval(0.0, false, hum_hi, false));
    hum.ConstrainInterval("ambient_temperature",
                          Interval(temp_lo, false, temp_hi, false));
    p.AddFilter(Filter(stream, hum));
    return p;
  };
  const Profile wide = source_profile({"ambient_temperature", "wind_speed",
                                       "relative_humidity", "timestamp"},
                                      0.0, 30.0, 80.0);
  const Profile narrow =
      source_profile({"wind_speed", "timestamp"}, 10.0, 20.0, 50.0);
  uint64_t allocs = 0;
  for (auto _ : state) {
    const uint64_t before = g_allocation_count.load();
    benchmark::DoNotOptimize(ProfileCovers(wide, narrow));
    allocs += g_allocation_count.load() - before;
  }
  state.counters["allocs_per_check"] =
      state.iterations() > 0 ? static_cast<double>(allocs) /
                                   static_cast<double>(state.iterations())
                             : 0.0;
}
BENCHMARK(BM_ProfileCovering);

void BM_ParseAndAnalyze(benchmark::State& state) {
  Catalog catalog;
  AuctionDataset auctions;
  (void)auctions.RegisterAll(catalog);
  const std::string cql =
      "SELECT O.itemID, O.timestamp, C.buyerID, C.timestamp "
      "FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C "
      "WHERE O.itemID = C.itemID";
  for (auto _ : state) {
    auto q = ParseAndAnalyze(cql, catalog, "r");
    benchmark::DoNotOptimize(q.ok());
  }
}
BENCHMARK(BM_ParseAndAnalyze);

void BM_QueryContains(benchmark::State& state) {
  Catalog catalog;
  AuctionDataset auctions;
  (void)auctions.RegisterAll(catalog);
  auto q1 = ParseAndAnalyze(
      "SELECT O.* FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C "
      "WHERE O.itemID = C.itemID",
      catalog, "r1");
  auto q2 = ParseAndAnalyze(
      "SELECT O.* FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C "
      "WHERE O.itemID = C.itemID",
      catalog, "r2");
  for (auto _ : state) {
    benchmark::DoNotOptimize(QueryContains(*q2, *q1));
  }
}
BENCHMARK(BM_QueryContains);

void BM_ComposeRepresentative(benchmark::State& state) {
  Catalog catalog;
  SensorDataset sensors;
  (void)sensors.RegisterAll(catalog);
  auto q1 = ParseAndAnalyze(
      "SELECT ambient_temperature FROM sensor_00 [Range 1 Hour] "
      "WHERE ambient_temperature >= 10 AND ambient_temperature <= 20",
      catalog, "r1");
  auto q2 = ParseAndAnalyze(
      "SELECT ambient_temperature, relative_humidity FROM sensor_00 "
      "[Range 2 Hour] WHERE ambient_temperature >= 15 AND "
      "ambient_temperature <= 25",
      catalog, "r2");
  std::vector<const AnalyzedQuery*> members = {&*q1, &*q2};
  for (auto _ : state) {
    auto rep = ComposeRepresentative(members, catalog, "rep");
    benchmark::DoNotOptimize(rep.ok());
  }
}
BENCHMARK(BM_ComposeRepresentative);

void BM_WindowJoin(benchmark::State& state) {
  AuctionDataset auctions;
  auto open = AuctionDataset::OpenAuctionSchema();
  auto closed = AuctionDataset::ClosedAuctionSchema();
  auto joined = MakeJoinedSchema({{open.get(), "O"}, {closed.get(), "C"}}, "j");
  size_t emitted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    WindowJoinOperator join({3 * kHour, 0}, {{0, 0, 1, 0}}, nullptr, joined);
    join.SetSink([&emitted](const Tuple&) { ++emitted; });
    auto open_gen = auctions.MakeOpenGenerator();
    auto closed_gen = auctions.MakeClosedGenerator();
    ReplayMerger merger = [&] {
      std::vector<std::unique_ptr<StreamGenerator>> gens;
      gens.push_back(std::move(open_gen));
      gens.push_back(std::move(closed_gen));
      return ReplayMerger(std::move(gens));
    }();
    state.ResumeTiming();
    while (auto t = merger.Next()) {
      join.Push(t->schema()->stream_name() == "OpenAuction" ? 0 : 1, *t);
    }
  }
  benchmark::DoNotOptimize(emitted);
}
BENCHMARK(BM_WindowJoin)->Unit(benchmark::kMillisecond);

// Hash-indexed join probing under a resident window of `range(0)` tuples:
// time per arrival should stay flat as the window grows (O(matches)).
void BM_WindowJoinProbe(benchmark::State& state) {
  const int64_t resident = state.range(0);
  auto left = std::make_shared<Schema>(
      "L", std::vector<AttributeDef>{{"k", ValueType::kInt64}});
  auto right = std::make_shared<Schema>(
      "R", std::vector<AttributeDef>{{"k", ValueType::kInt64}});
  auto out = MakeJoinedSchema({{left.get(), "L"}, {right.get(), "R"}}, "J");
  WindowJoinOperator join({kInfiniteDuration, kInfiniteDuration},
                          {{0, 0, 1, 0}}, nullptr, out);
  join.SetSink(nullptr);
  // Populate the left window with distinct keys.
  for (int64_t i = 0; i < resident; ++i) {
    join.Push(0, Tuple(left, {Value(i)}, i));
  }
  int64_t ts = resident;
  int64_t key = 0;
  for (auto _ : state) {
    join.Push(1, Tuple(right, {Value(key % resident)}, ts));
    ++ts;
    ++key;
    state.PauseTiming();
    // Keep the right buffer from growing unboundedly across iterations.
    state.ResumeTiming();
  }
}
BENCHMARK(BM_WindowJoinProbe)->Arg(100)->Arg(1000)->Arg(10000);

void BM_MultiWayJoinThreeStreams(benchmark::State& state) {
  auto schema = std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{{"k", ValueType::kInt64}});
  auto out = MakeJoinedSchema(
      {{schema.get(), "A"}, {schema.get(), "B"}, {schema.get(), "C"}}, "J");
  size_t emitted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    WindowJoinOperator join({10, 10, 10}, {{0, 0, 1, 0}, {1, 0, 2, 0}},
                            nullptr, out);
    join.SetSink([&emitted](const Tuple&) { ++emitted; });
    state.ResumeTiming();
    Rng rng(7);
    for (int i = 0; i < 3000; ++i) {
      join.Push(rng.NextBounded(3),
                Tuple(schema, {Value(rng.NextInt(0, 9))}, i));
    }
  }
  benchmark::DoNotOptimize(emitted);
}
BENCHMARK(BM_MultiWayJoinThreeStreams)->Unit(benchmark::kMillisecond);

// Sliding MIN and MAX over one group with range(0) tuples resident in the
// window (one per tick, so every arrival evicts one): time and allocations
// per arrival should stay flat as the window grows. Only Push is counted
// for allocations, not the building of the arriving tuple.
void BM_WindowAggregate(benchmark::State& state) {
  const int64_t resident = state.range(0);
  auto in = std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{{"g", ValueType::kInt64},
                                     {"v", ValueType::kDouble}});
  auto out = std::make_shared<Schema>(
      "A", std::vector<AttributeDef>{{"g", ValueType::kInt64},
                                     {"lo", ValueType::kDouble},
                                     {"hi", ValueType::kDouble}});
  WindowAggregateOperator agg(
      resident - 1, {0},
      {{AggFunc::kMin, false, 1}, {AggFunc::kMax, false, 1}}, out);
  size_t emitted = 0;
  agg.SetSink([&emitted](const Tuple&) { ++emitted; });
  Rng rng(11);
  std::vector<double> values(1024);
  for (double& v : values) v = rng.NextDouble(0, 1000);
  int64_t ts = 0;
  auto arrival = [&] {
    const double v = values[static_cast<size_t>(ts) & 1023];
    return Tuple(in, {Value(int64_t{0}), Value(v)}, ts++);
  };
  while (ts < resident) agg.Push(0, arrival());
  uint64_t allocs = 0;
  for (auto _ : state) {
    Tuple t = arrival();
    const uint64_t before = g_allocation_count.load();
    agg.Push(0, t);
    allocs += g_allocation_count.load() - before;
  }
  benchmark::DoNotOptimize(emitted);
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_arrival"] =
      state.iterations() > 0 ? static_cast<double>(allocs) /
                                   static_cast<double>(state.iterations())
                             : 0.0;
}
BENCHMARK(BM_WindowAggregate)->Arg(100)->Arg(1000)->Arg(10000);

void BM_CodecRoundTrip(benchmark::State& state) {
  SensorDataset sensors;
  auto schema = sensors.SchemaOf(0);
  Datagram d{schema->stream_name(), MakeSensorTuple(schema, 20.0, 5)};
  for (auto _ : state) {
    auto bytes = EncodeDatagram(d);
    auto decoded = DecodeDatagram(bytes);
    benchmark::DoNotOptimize(decoded.ok());
  }
}
BENCHMARK(BM_CodecRoundTrip);

// ---- telemetry overhead ----
//
// The instruments are meant to stay on everywhere, so their hot-path cost
// is gated: BM_CounterHotPath measures one cached-handle increment, and the
// BM_ForwardWith/WithoutTelemetry pair publishes through a CBN with vs
// without an external MetricsRegistry attached — tools/check_bench.py
// requires the attached throughput to stay within 5% of the other one
// (BENCH_routing.json). The CBN counts into a registry of its own when
// none is attached, so both sides pay the same instruments and the gate
// guards that attaching one adds nothing.

void BM_CounterHotPath(benchmark::State& state) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("bench.count");
  Histogram* hist = registry.GetHistogram("bench.bytes");
  uint64_t v = 0;
  for (auto _ : state) {
    counter->Increment();
    hist->Observe(v++ & 1023);
    benchmark::ClobberMemory();
  }
  state.counters["updates_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CounterHotPath);

// A 100-node CBN with 50 range subscriptions, publishing one matching
// sensor datagram per iteration — also the plain CBN publish benchmark.
struct TelemetryForwardFixture {
  TelemetryForwardFixture() : network(MakeTree()) {
    SensorDataset sensors;
    schema = sensors.SchemaOf(0);
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
      Profile p;
      ConjunctiveClause c;
      c.ConstrainInterval("ambient_temperature",
                          Interval(rng.NextDouble(-10, 10), false,
                                   rng.NextDouble(15, 35), false));
      p.AddStream(schema->stream_name(),
                  {"ambient_temperature", "relative_humidity"});
      p.AddFilter(Filter(schema->stream_name(), c));
      network.Subscribe(static_cast<NodeId>(rng.NextBounded(100)),
                        std::move(p), nullptr);
    }
    publisher = network.Advertise(0, schema->stream_name());
    tuple = MakeSensorTuple(schema, 18.0, 1);
  }

  static DisseminationTree MakeTree() {
    TopologyOptions topo_opts;
    topo_opts.num_nodes = 100;
    topo_opts.seed = 12;
    Topology topo = GenerateBarabasiAlbert(topo_opts);
    return DisseminationTree::FromEdges(topo_opts.num_nodes,
                                        *MinimumSpanningTree(topo.graph))
        .value();
  }

  ContentBasedNetwork network;
  std::shared_ptr<const Schema> schema;
  ContentBasedNetwork::Publisher publisher;
  Tuple tuple;
};

void BM_ForwardWithoutTelemetry(benchmark::State& state) {
  TelemetryForwardFixture fix;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fix.network.Publish(fix.publisher, fix.tuple));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["datagrams_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ForwardWithoutTelemetry);

void BM_ForwardWithTelemetry(benchmark::State& state) {
  TelemetryForwardFixture fix;
  MetricsRegistry registry;
  fix.network.SetTelemetry(&registry, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fix.network.Publish(fix.publisher, fix.tuple));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["datagrams_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ForwardWithTelemetry);

// ---- CBN forwarding: stream-partitioned index vs pre-index linear scan ----
//
// Models one broker link carrying range(0) routing entries spread over
// ~range(0)/10 result streams (the large-scale pub/sub shape: many narrow
// streams, a handful of subscriptions each). The indexed path is the real
// Router::DecideForward, fed datagrams whose stream ids were resolved once
// (as ContentBasedNetwork::Publish does); the linear reference reproduces
// the seed implementation — full per-link entry scan, a per-datagram
// std::set<std::string> union and a plan cache keyed by the joined
// attribute names — so one run yields the speedup ratio that
// tools/check_bench.py gates on in BENCH_routing.json.

// The seed's projection cache: plans keyed by (schema, comma-joined
// attribute names), one network-wide instance. Kept only as part of the
// linear reference.
class SeedProjectionCache {
 public:
  Datagram Project(const Datagram& d, const std::vector<std::string>& attrs) {
    const std::shared_ptr<const Schema>& schema = d.tuple.schema();
    auto key = std::make_pair(schema.get(), StrJoin(attrs, ","));
    auto it = plans_.find(key);
    if (it == plans_.end()) {
      Plan plan{schema, {}, nullptr};
      std::vector<AttributeDef> defs;
      for (size_t i = 0; i < schema->num_attributes(); ++i) {
        const auto& def = schema->attribute(i);
        if (std::find(attrs.begin(), attrs.end(), def.name) != attrs.end()) {
          plan.indices.push_back(i);
          defs.push_back(def);
        }
      }
      if (plan.indices.size() < schema->num_attributes()) {
        plan.schema =
            std::make_shared<Schema>(schema->stream_name(), std::move(defs));
      }
      it = plans_.emplace(std::move(key), std::move(plan)).first;
    }
    if (it->second.schema == nullptr) return d;
    return Datagram{d.stream,
                    d.tuple.Project(it->second.indices, it->second.schema)};
  }

 private:
  struct Plan {
    std::shared_ptr<const Schema> source;  // retained against address reuse
    std::vector<size_t> indices;
    std::shared_ptr<const Schema> schema;  // nullptr: identity
  };
  std::map<std::pair<const Schema*, std::string>, Plan> plans_;
};

// One forwarding decision toward `link` as a hop makes it: find d's
// bucket for the link, then decide.
const Datagram* DecideToward(const Router& router, const Datagram& d,
                             NodeId link, std::optional<Datagram>* projected) {
  const RoutingTable::StreamBucket* bucket =
      router.table().BucketFor(link, d.stream_id);
  if (bucket == nullptr) return nullptr;
  return router.DecideForward(d, *bucket, /*early_projection=*/true,
                              projected);
}

struct RoutingForwardFixture {
  static constexpr NodeId kLink = 1;

  StreamTable streams;
  Router router{0, &streams};
  std::optional<Datagram> projected;
  SeedProjectionCache seed_cache;
  // The profiles installed on kLink, in installation order: the per-link
  // entry list the seed table kept, which LinearDecideForward walks.
  std::vector<ProfilePtr> link_profiles;
  std::vector<Datagram> datagrams;

  explicit RoutingForwardFixture(size_t num_entries) {
    const size_t num_streams = std::max<size_t>(1, num_entries / 10);
    Rng rng(42);
    std::vector<std::shared_ptr<const Schema>> schemas;
    schemas.reserve(num_streams);
    for (size_t s = 0; s < num_streams; ++s) {
      schemas.push_back(std::make_shared<Schema>(
          "st" + std::to_string(s),
          std::vector<AttributeDef>{{"temp", ValueType::kDouble, -10, 40},
                                    {"hum", ValueType::kDouble, 0, 100}}));
    }
    for (size_t i = 0; i < num_entries; ++i) {
      const auto& schema = schemas[i % num_streams];
      Profile p;
      ConjunctiveClause c;
      double lo = rng.NextDouble(-10, 25);
      c.ConstrainInterval("temp", Interval(lo, false, lo + 10, false));
      p.AddStream(schema->stream_name(), {"temp"});
      p.AddFilter(Filter(schema->stream_name(), std::move(c)));
      link_profiles.push_back(std::make_shared<const Profile>(std::move(p)));
      router.table().Add(
          kLink, RoutingTable::Resolve(&streams, static_cast<ProfileId>(i + 1),
                                       link_profiles.back()));
    }
    datagrams.reserve(512);
    for (size_t i = 0; i < 512; ++i) {
      const auto& schema = schemas[rng.NextBounded(num_streams)];
      datagrams.push_back(
          Datagram{schema->stream_name(),
                   Tuple(schema,
                         {Value(rng.NextDouble(-10, 40)),
                          Value(rng.NextDouble(0, 100))},
                         static_cast<Timestamp>(i)),
                   streams.Find(schema->stream_name())});
    }
  }
};

// The seed implementation of MatchingProfiles + DecideForward, kept as the
// same-run baseline for the BENCH_routing.json speedup gate.
std::optional<Datagram> LinearDecideForward(
    const std::vector<ProfilePtr>& link_profiles, const Datagram& d,
    SeedProjectionCache& cache) {
  std::vector<const Profile*> matching;
  for (const ProfilePtr& p : link_profiles) {
    if (p->Covers(d)) matching.push_back(p.get());
  }
  if (matching.empty()) return std::nullopt;
  std::set<std::string> needed;
  for (const Profile* p : matching) {
    std::vector<std::string> req = p->RequiredAttributes(d.stream);
    if (req.empty()) return d;  // wants all attributes
    needed.insert(req.begin(), req.end());
  }
  return cache.Project(
      d, std::vector<std::string>(needed.begin(), needed.end()));
}

void ReportForwardingCounters(benchmark::State& state, uint64_t allocs) {
  state.SetItemsProcessed(state.iterations());
  state.counters["datagrams_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["allocs_per_datagram"] =
      state.iterations() > 0
          ? static_cast<double>(allocs) /
                static_cast<double>(state.iterations())
          : 0.0;
}

void BM_RoutingForwardIndexed(benchmark::State& state) {
  RoutingForwardFixture fix(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  const uint64_t allocs_before = g_allocation_count.load();
  for (auto _ : state) {
    const Datagram* out =
        DecideToward(fix.router, fix.datagrams[i & 511],
                     RoutingForwardFixture::kLink, &fix.projected);
    benchmark::DoNotOptimize(out);
    ++i;
  }
  ReportForwardingCounters(state, g_allocation_count.load() - allocs_before);
}
BENCHMARK(BM_RoutingForwardIndexed)->Arg(100)->Arg(1000)->Arg(10000);

void BM_RoutingForwardLinear(benchmark::State& state) {
  RoutingForwardFixture fix(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  const uint64_t allocs_before = g_allocation_count.load();
  for (auto _ : state) {
    auto out = LinearDecideForward(fix.link_profiles, fix.datagrams[i & 511],
                                   fix.seed_cache);
    benchmark::DoNotOptimize(out);
    ++i;
  }
  ReportForwardingCounters(state, g_allocation_count.load() - allocs_before);
}
BENCHMARK(BM_RoutingForwardLinear)->Arg(100)->Arg(1000)->Arg(10000);

// ---- compiled vs interpreted matching inside one (link, stream) bucket ----
//
// All range(0) profiles subscribe to the same stream — the shape the
// stream-partitioned index cannot help with — mixing point equalities on a
// discrete station id with narrow temperature ranges. BM_MatchCompiled is
// the real Router::DecideForward (compiled counting matcher);
// BM_MatchInterpreted runs InterpretedDecideForward, the per-profile walk
// over the same bucket, so one run yields the >=3x ratio
// tools/check_bench.py gates at 10^4 profiles. The constructor runs a short
// warm-up so steady
// state measures matching, not the one-off bucket compile (that tradeoff
// is charged to the first datagram after any subscription churn).

struct MatchBucketFixture {
  static constexpr NodeId kLink = 1;

  StreamTable streams;
  Router router{0, &streams};
  std::optional<Datagram> projected;
  std::vector<Datagram> datagrams;

  explicit MatchBucketFixture(size_t num_profiles) {
    Rng rng(7);
    auto schema = std::make_shared<Schema>(
        "sensor",
        std::vector<AttributeDef>{{"station", ValueType::kInt64, 0, 499},
                                  {"temp", ValueType::kDouble, -10, 40},
                                  {"hum", ValueType::kDouble, 0, 100}});
    for (size_t i = 0; i < num_profiles; ++i) {
      Profile p;
      ConjunctiveClause c;
      if (i % 2 == 0) {
        c.ConstrainEquals(
            "station", Value(static_cast<int64_t>(rng.NextBounded(500))));
      } else {
        const double lo = rng.NextDouble(-10, 25);
        c.ConstrainInterval(
            "temp", Interval(lo, false, lo + rng.NextDouble(0.5, 3.0), false));
      }
      p.AddStream("sensor", {"temp"});
      p.AddFilter(Filter("sensor", std::move(c)));
      router.table().Add(
          kLink, RoutingTable::Resolve(
                     &streams, static_cast<ProfileId>(i + 1),
                     std::make_shared<const Profile>(std::move(p))));
    }
    datagrams.reserve(512);
    for (size_t i = 0; i < 512; ++i) {
      datagrams.push_back(
          Datagram{"sensor",
                   Tuple(schema,
                         {Value(static_cast<int64_t>(rng.NextBounded(500))),
                          Value(rng.NextDouble(-10, 40)),
                          Value(rng.NextDouble(0, 100))},
                         static_cast<Timestamp>(i)),
                   streams.Find("sensor")});
    }
    for (size_t i = 0; i < 8; ++i) {
      const Datagram* out =
          DecideToward(router, datagrams[i], kLink, &projected);
      benchmark::DoNotOptimize(out);
    }
  }
};

void BM_MatchCompiled(benchmark::State& state) {
  MatchBucketFixture fix(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  const uint64_t allocs_before = g_allocation_count.load();
  for (auto _ : state) {
    const Datagram* out =
        DecideToward(fix.router, fix.datagrams[i & 511],
                     MatchBucketFixture::kLink, &fix.projected);
    benchmark::DoNotOptimize(out);
    ++i;
  }
  ReportForwardingCounters(state, g_allocation_count.load() - allocs_before);
}
BENCHMARK(BM_MatchCompiled)->Arg(100)->Arg(1000)->Arg(10000);

// The forwarding decision by the interpreted walk: Profile::Covers per
// bucket slot, the union of the matching slots' required attributes, then
// the bucket's projection. The same-run reference for the
// BENCH_routing.json match gate.
const Datagram* InterpretedDecideForward(const MatchBucketFixture& fix,
                                         const Datagram& d,
                                         std::optional<Datagram>* projected) {
  const RoutingTable::StreamBucket* bucket =
      fix.router.table().BucketFor(MatchBucketFixture::kLink, d.stream_id);
  if (bucket == nullptr) return nullptr;
  size_t matched = 0;
  AttrMask needed = 0;
  for (const auto& slot : bucket->slots()) {
    if (!slot.profile().Covers(d)) continue;
    ++matched;
    needed |= slot.required;
  }
  if (matched == 0) return nullptr;
  if (matched == bucket->slots().size()) needed = bucket->UnionMask();
  Tuple tuple;
  const Tuple& out = bucket->projections().Project(
      d.tuple, needed, fix.streams.attributes(d.stream_id), &tuple);
  if (&out == &d.tuple) return &d;
  Datagram& p = projected->has_value() ? **projected : projected->emplace();
  p.stream = d.stream;
  p.stream_id = d.stream_id;
  p.tuple = std::move(tuple);
  return &p;
}

void BM_MatchInterpreted(benchmark::State& state) {
  MatchBucketFixture fix(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  const uint64_t allocs_before = g_allocation_count.load();
  for (auto _ : state) {
    const Datagram* out = InterpretedDecideForward(
        fix, fix.datagrams[i & 511], &fix.projected);
    benchmark::DoNotOptimize(out);
    ++i;
  }
  ReportForwardingCounters(state, g_allocation_count.load() - allocs_before);
}
BENCHMARK(BM_MatchInterpreted)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace cosmos
