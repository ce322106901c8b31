// End-to-end COSMOS benchmark.
//
// Drives a seeded CosmosSystem through its public surface only --
// SubmitQuery, RemoveQuery, PublishSourceTuple and the user DeliveryCallback,
// which this file owns -- and prints end-to-end and per-layer metrics. The
// system under test follows the paper's §5 setup at 100 nodes: a
// Barabási–Albert overlay with an MST dissemination tree, 63 SensorDataset
// streams on seeded publisher nodes, 4 processors on seeded nodes, and
// zipf(1.5) CQL from QueryWorkloadGenerator with 20% aggregates and 5% joins.
//
// The load is closed-loop: one thread issues each call after the previous one
// returned. Without a Simulator, PublishSourceTuple returns only after every
// delivery, so closed-loop throughput is the sustainable rate.
//
// A run is a fixed number of rounds. Each round builds a fresh system from a
// seed derived from --seed and the round number, sets it up (base queries,
// a short query turnover, a warm-up replay) and then runs the workload's
// timed phase. The work per round is fixed, so every count repeats exactly for
// a given seed; --seconds scales the timed work (10 is the calibrated size).
// Rounds differ widely -- at zipf(1.5) a handful of queries carry much of the
// load -- so a run measures many of them and pools their samples. Query kinds
// are drawn in blocks with exactly the configured shares, so every round has
// the same number of aggregates and joins.
//
// Every end-to-end metric is reported on every workload. A metric of a call
// kind is measured over the timed phase's calls of that kind, or over a
// set-up step's calls of that kind when the timed phase makes none:
//
//   workload  submits           removes           source tuples
//   stream    set-up install    set-up turnover   timed
//   churn     timed             timed             timed
//
// Stream's submits thus run while no tuple flows: they measure the control
// plane alone, and its tuples the data plane alone. The turnover step makes
// remove+submit pairs at 50 live queries (removes at hundreds of live
// queries take seconds each).
//
// End-to-end times are taken on WorkClock, which scales wall time to a
// nominal host speed (see below), and exclude the benchmark's own work
// between calls. Per-layer times (trace spans, the query-layer replay) are
// wall time.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the first three
// rounds twice, once untraced (with heap-allocation counting) and once with
// the metrics registry and the tracer on, and prints the per-layer metrics.
//
// Usage:
//   cosmos_perfbench --workload stream|churn --seed N --seconds S
//                    --trace 0|1 [--scale F] [--trace-out FILE]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/system.h"
#include "core/workload.h"
#include "harness/oracle.h"
#include "overlay/spanning_tree.h"
#include "overlay/topology.h"
#include "query/analyzer.h"
#include "stream/sensor_dataset.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

// ---- heap-allocation counting ----
//
// Replacing the global operator new is the only way to count allocations
// made inside the library without instrumenting it. Counting is switched on
// only around driven calls in the traced run; the benchmark's own callback
// pauses it.
namespace {
std::atomic<uint64_t> g_allocations{0};
bool g_count_allocations = false;
}  // namespace

// noinline keeps GCC from tracing malloc/free through the replaced
// operators and mis-reporting -Wmismatched-new-delete at call sites.
__attribute__((noinline)) void* operator new(std::size_t size) {
  if (g_count_allocations) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
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

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Pauses allocation counting for the enclosing scope.
class AllocationPause {
 public:
  AllocationPause() : saved_(g_count_allocations) {
    g_count_allocations = false;
  }
  ~AllocationPause() { g_count_allocations = saved_; }

 private:
  bool saved_;
};

// ---- host-speed normalisation ----
//
// The benchmark shares its machine with other tenants, whose load slows every
// program on it -- in wall and CPU time alike -- for seconds to minutes at a
// time: one seed of one workload has been measured to take from 14 s to 24 s
// within a few minutes. WorkClock therefore measures time at a nominal host
// speed. Between driven calls, at most every kIntervalNs, it times a fixed
// reference kernel shaped like the system's own work -- it fills and probes
// a std::map keyed by short strings, so it allocates, compares strings and
// chases pointers -- and then advances at wall speed times kNominalNs over
// the median of the last kWindow kernel durations. The kernel's own time is
// left out. It calls no COSMOS code, so a change to the system cannot move
// it. A kernel of random reads and integer arithmetic tracked the slowdowns
// of this benchmark's calls about half as well.
class WorkClock {
 public:
  WorkClock() {
    for (int i = 0; i < kWindow; ++i) Recalibrate();
  }

  double Now() const { return base_ + (NowNs() - wall_base_) * speed_; }

  void MaybeRecalibrate() {
    if (NowNs() - wall_base_ >= kIntervalNs) Recalibrate();
  }

  // Median host speed over the run, relative to the nominal one.
  double MedianSpeed() const {
    std::vector<double> v = speeds_;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  }

 private:
  void Recalibrate() {
    base_ = Now();
    const int64_t start = NowNs();
    {
      std::map<std::string, uint32_t> map;
      for (uint32_t k = 0; k < kKeys; ++k) {
        map["key_" + std::to_string(k * 7919 % kKeys)] += k;
      }
      for (uint32_t k = 0; k < kKeys; ++k) {
        sink_ += map.count("key_" + std::to_string(k));
      }
    }
    wall_base_ = NowNs();
    recent_[calibrations_++ % kWindow] =
        static_cast<double>(wall_base_ - start);
    std::vector<double> recent(
        recent_, recent_ + std::min<uint64_t>(calibrations_, kWindow));
    std::sort(recent.begin(), recent.end());
    speed_ = kNominalNs / recent[recent.size() / 2];
    speeds_.push_back(speed_);
  }

  static constexpr uint32_t kKeys = 1500;
  static constexpr double kNominalNs = 0.8e6;
  static constexpr int64_t kIntervalNs = 40000000;
  static constexpr int kWindow = 5;

  double base_ = 0;
  int64_t wall_base_ = NowNs();
  double speed_ = 1.0;
  double recent_[kWindow] = {};
  uint64_t calibrations_ = 0;
  std::vector<double> speeds_;
  uint64_t sink_ = 0;
};

WorkClock* g_clock = nullptr;

// ---- workloads ----

constexpr int kNodes = 100;
constexpr int kProcessors = 4;
constexpr double kTheta = 1.5;
constexpr double kAggregateFraction = 0.2;
constexpr double kJoinFraction = 0.05;
constexpr int kKindBlock = 20;
// Rounds a traced run measures (twice each).
constexpr int kTracedRounds = 3;

enum class Kind { kSubmit = 0, kRemove = 1, kTuple = 2 };
// kSetup covers the base install and the warm-up; kTurnover is the set-up's
// remove+submit step.
enum class Phase { kSetup = 0, kTurnover = 1, kTimed = 2 };
constexpr int kNumKinds = 3;

struct Spec {
  std::string name;
  int rounds = 1;
  int base_queries = 0;
  // Remove+submit pairs made once `turnover_population` queries are live
  // during set-up, so every workload measures RemoveQuery.
  int turnover_pairs = 0;
  int turnover_population = 50;
  double warmup_hours = 0;
  // Timed phase: `timed_hours` of history in which `churn_pairs`
  // remove+submit pairs are spread evenly.
  double timed_hours = 0;
  int churn_pairs = 0;
  // Oracle sample per round, by query kind. Churn samples select-project
  // queries only: a representative reinstall resets window state, so
  // stateful queries have no exact answer under churn.
  int oracle_select = 0;
  int oracle_aggregate = 0;
  int oracle_join = 0;
  // Fraction of the fresh select-project queries of the timed phase that
  // join the oracle sample.
  double oracle_fresh_fraction = 0;
  // Which phase supplies each call kind's metrics.
  Phase metric_phase[kNumKinds] = {Phase::kTimed, Phase::kTimed,
                                   Phase::kTimed};
};

std::optional<Spec> MakeSpec(const std::string& name, double seconds,
                             double scale) {
  const double timed = scale * seconds / 10.0;
  auto n = [](double v) { return std::max(1, static_cast<int>(v + 0.5)); };
  Spec s;
  s.name = name;
  if (name == "stream") {
    s.rounds = 12;
    s.base_queries = n(250 * scale);
    s.turnover_pairs = n(35 * scale);
    s.turnover_population = n(50 * scale);
    s.warmup_hours = 8 * scale;
    s.timed_hours = 3 * timed;
    s.oracle_select = 4;
    s.oracle_aggregate = 3;
    s.oracle_join = 2;
    s.metric_phase[static_cast<int>(Kind::kSubmit)] = Phase::kSetup;
    s.metric_phase[static_cast<int>(Kind::kRemove)] = Phase::kTurnover;
  } else if (name == "churn") {
    s.rounds = 28;
    s.base_queries = n(50 * scale);
    s.warmup_hours = 8 * scale;
    s.timed_hours = 4 * timed;
    s.churn_pairs = n(20 * timed);
    s.oracle_select = 4;
    s.oracle_fresh_fraction = 0.25;
  } else {
    return std::nullopt;
  }
  return s;
}

// ---- sample statistics ----

// Nearest-rank percentile of an unsorted sample (copied and sorted).
template <typename T>
double Percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// p-quantile of a log2-bucketed histogram delta, interpolated linearly
// inside the bucket that holds it.
double HistogramQuantile(const std::vector<uint64_t>& buckets, double p) {
  uint64_t total = 0;
  for (uint64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  const double target = p * static_cast<double>(total);
  double below = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (below + static_cast<double>(buckets[i]) >= target) {
      const double lo =
          i == 0 ? 0.0 : static_cast<double>(Histogram::BucketUpperBound(i - 1)) + 1;
      const double hi = static_cast<double>(Histogram::BucketUpperBound(i));
      return lo + (hi - lo) * (target - below) / static_cast<double>(buckets[i]);
    }
    below += static_cast<double>(buckets[i]);
  }
  return static_cast<double>(Histogram::BucketUpperBound(buckets.size() - 1));
}

// Canonical multiset key of a result tuple: timestamp plus every attribute
// as name=value, doubles as hexfloats so two values collide only when
// bit-identical. The stream name is left out (the system names results
// result_<id>, the oracle oracle_<tag>).
std::string TupleKey(const Tuple& t) {
  std::string key = StrFormat("@%lld|", static_cast<long long>(t.timestamp()));
  const Schema& schema = *t.schema();
  for (size_t i = 0; i < t.num_values(); ++i) {
    key += schema.attribute(i).name;
    const Value& v = t.value(i);
    switch (v.type()) {
      case ValueType::kInt64:
        key += StrFormat("=i%lld;", static_cast<long long>(v.AsInt64()));
        break;
      case ValueType::kDouble:
        key += StrFormat("=d%a;", v.AsDouble());
        break;
      case ValueType::kString:
        key += "=s" + v.AsString() + ";";
        break;
      case ValueType::kBool:
        key += v.AsBool() ? "=b1;" : "=b0;";
        break;
      case ValueType::kNull:
        key += "=null;";
        break;
    }
  }
  return key;
}

bool SameMultiset(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  if (a.size() != b.size()) return false;
  std::map<std::string, int64_t> counts;
  for (const Tuple& t : a) ++counts[TupleKey(t)];
  for (const Tuple& t : b) {
    if (--counts[TupleKey(t)] < 0) return false;
  }
  return true;
}

// ---- per-pass accumulators ----

// Everything one pass (all rounds, traced or not) measures.
struct PassResult {
  // Set-up.
  std::vector<double> setup_s, install_s, warmup_s;
  // Driven calls in their metric phase.
  std::vector<double> call_ms[kNumKinds];
  uint64_t tuples = 0;
  uint64_t wire_bytes = 0;
  // Time spent in metric-phase submits, and in the tuple phase: its
  // publishes plus the churn calls interleaved with them.
  double submit_s = 0;
  double tuple_phase_s = 0;
  // Result latencies, pooled over rounds.
  std::vector<float> result_us;
  uint64_t user_deliveries = 0;  // during metric-phase publishes
  // Outcome accounting.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> oracle_checked;  // by query kind
  uint64_t oracle_results = 0;
  // Deterministic structure after set-up, summed over rounds.
  uint64_t setup_control_messages = 0;
  uint64_t table_entries = 0;
  uint64_t queries_after_setup = 0;
  uint64_t groups_after_setup = 0;
  // Allocations inside metric-phase calls (counting pass only).
  uint64_t allocations[kNumKinds] = {0, 0, 0};
  // Per-call control-plane deltas, summed over metric-phase calls.
  uint64_t control_messages[kNumKinds] = {0, 0, 0};
  // ---- traced pass only ----
  uint64_t rep_changes[kNumKinds] = {0, 0, 0};
  uint64_t groups_dissolved[kNumKinds] = {0, 0, 0};
  uint64_t forwards[kNumKinds] = {0, 0, 0};
  uint64_t evals[kNumKinds] = {0, 0, 0};
  // Span sums over metric-phase tuples (ns).
  int64_t publish_ns = 0, eval_ns = 0, callback_in_eval_ns = 0,
          callback_other_ns = 0;
  uint64_t matches = 0, cbn_deliveries = 0, matcher_compiles = 0,
           tuple_forwards = 0;
  uint64_t spe_tuples_in = 0, spe_results_out = 0;
  std::vector<uint64_t> match_ns_buckets;
  std::vector<double> parse_analyze_us, grouping_add_us;

  size_t calls(Kind k) const { return call_ms[static_cast<int>(k)].size(); }
};

// ---- one round ----

class Round {
 public:
  Round(const Spec& spec, uint64_t seed, bool traced, bool count_allocations,
        PassResult* out)
      : spec_(spec),
        seed_(seed),
        traced_(traced),
        count_allocations_(count_allocations),
        out_(out) {}

  // Window of trace events (nanosecond timestamps) kept for export.
  std::vector<Tracer::Event> TakeTraceWindow() { return std::move(window_); }

  void Run() {
    // The history is generated before the set-up clock starts: it is the
    // benchmark's input, not the system's work.
    MakeHistory();
    const double setup_start = g_clock->Now();
    Build();
    phase_ = Phase::kSetup;
    const double install_start = g_clock->Now();
    InstallBase();
    const double warmup_start = g_clock->Now();
    Replay(spec_.warmup_hours, /*churn_every=*/0);
    const double setup_end = g_clock->Now();
    FlushTrace();

    out_->setup_s.push_back((setup_end - setup_start) * 1e-9);
    out_->install_s.push_back((warmup_start - install_start) * 1e-9);
    out_->warmup_s.push_back((setup_end - warmup_start) * 1e-9);
    out_->setup_control_messages += system_->network().control_messages();
    out_->table_entries += system_->network().TotalTableEntries();
    out_->queries_after_setup += system_->TotalQueries();
    out_->groups_after_setup += system_->TotalGroups();

    phase_ = Phase::kTimed;
    if (spec_.timed_hours > 0) {
      const double tuples = spec_.timed_hours * 3600.0 /
                            sensor_options_.sampling_period * kSecond *
                            sensor_options_.num_stations;
      const int every =
          spec_.churn_pairs > 0
              ? std::max(1, static_cast<int>(tuples / spec_.churn_pairs))
              : 0;
      Replay(spec_.timed_hours, every);
    }
    FlushTrace();
    CheckOracle();
    if (traced_) ReplayQueryLayer();
  }

 private:
  struct QueryInfo {
    std::string cql;
    std::string id;
    std::string tag;  // oracle tag, empty when not sampled
    Phase phase;
    NodeId home = -1;
  };

  Rng Stream(uint64_t concern) const { return Rng(seed_).Derive(concern); }

  void Build() {
    Rng topo_rng = Stream(1);
    TopologyOptions topo_options;
    topo_options.num_nodes = kNodes;
    topo_options.seed = topo_rng.NextUint64();
    Topology topo = GenerateBarabasiAlbert(topo_options);
    auto mst = MinimumSpanningTree(topo.graph);
    COSMOS_CHECK(mst.ok());
    auto tree = DisseminationTree::FromEdges(kNodes, *mst);
    COSMOS_CHECK(tree.ok());

    SystemOptions options;
    if (traced_) {
      registry_ = std::make_unique<MetricsRegistry>();
      tracer_ = std::make_unique<Tracer>();
      tracer_->Enable();
      options.metrics = registry_.get();
      options.tracer = tracer_.get();
    }
    system_ = std::make_unique<CosmosSystem>(std::move(*tree), options);
    if (traced_) {
      tracer_->SetClock([] { return NowNs(); });
      rep_changes_ = registry_->GetCounter("core.representative_changes");
      groups_dissolved_ = registry_->GetCounter("core.groups_dissolved");
      forwards_ = registry_->GetCounter("cbn.forwards");
    }

    Rng place_rng = Stream(2);
    for (int k = 0; k < sensors_->num_stations(); ++k) {
      NodeId publisher = static_cast<NodeId>(place_rng.NextBounded(kNodes));
      Check(system_->RegisterSource(sensors_->SchemaOf(k),
                                    sensors_->RatePerStation(), publisher));
    }
    std::vector<NodeId> nodes(kNodes);
    for (int i = 0; i < kNodes; ++i) nodes[i] = i;
    for (int p = 0; p < kProcessors; ++p) {
      size_t j = p + place_rng.NextBounded(kNodes - p);
      std::swap(nodes[p], nodes[j]);
      Check(system_->AddProcessor(nodes[p]));
    }

    // One generator per query kind, and a schedule that draws the kinds in
    // blocks of kKindBlock with exactly the configured shares: the number of
    // aggregates and joins in a round is then fixed instead of binomial, so
    // rounds differ less in work.
    for (int k = 0; k < 3; ++k) {
      WorkloadOptions wl;
      wl.zipf_theta = kTheta;
      wl.aggregate_fraction = k == 1 ? 1.0 : 0.0;
      wl.join_fraction = k == 2 ? 1.0 : 0.0;
      wl.seed = Stream(3).Derive(static_cast<uint64_t>(k)).NextUint64();
      generators_[k] =
          std::make_unique<QueryWorkloadGenerator>(&system_->catalog(), wl);
    }
    kind_rng_ = Stream(8);
    user_rng_ = Stream(4);
    sample_rng_ = Stream(5);
    victim_rng_ = Stream(6);
    oracle_ = std::make_unique<GroundTruthOracle>(&system_->catalog());
  }

  void MakeHistory() {
    sensor_options_.seed = Stream(7).NextUint64();
    sensor_options_.duration = static_cast<Duration>(
        (spec_.warmup_hours + spec_.timed_hours) * kHour);
    sensors_ = std::make_unique<SensorDataset>(sensor_options_);
    replay_ = sensors_->MakeReplay();
  }

  void Check(const Status& s) {
    ++out_->attempted;
    if (!s.ok()) {
      ++out_->failed;
      std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
    }
  }

  bool InMetricPhase(Kind k) const {
    return spec_.metric_phase[static_cast<int>(k)] == phase_;
  }

  // Records one driven call's duration and per-call counter deltas.
  struct CallProbe {
    double start_ns = 0;
    uint64_t allocations = 0, control = 0, rep_changes = 0, dissolved = 0,
             forwards = 0;
    size_t events = 0;
  };

  CallProbe BeginCall() {
    CallProbe p;
    p.control = system_->network().control_messages();
    if (traced_) {
      p.rep_changes = rep_changes_->value();
      p.dissolved = groups_dissolved_->value();
      p.forwards = forwards_->value();
      p.events = tracer_->num_events();
    }
    p.allocations = g_allocations.load(std::memory_order_relaxed);
    g_count_allocations = count_allocations_;
    p.start_ns = g_clock->Now();
    return p;
  }

  // Returns the call's duration in ms.
  double EndCall(Kind kind, const CallProbe& p, bool interleaved) {
    const double end_ns = g_clock->Now();
    g_count_allocations = false;
    const bool metric = InMetricPhase(kind);
    const double ms = (end_ns - p.start_ns) * 1e-6;
    if (interleaved && InMetricPhase(Kind::kTuple)) {
      out_->tuple_phase_s += ms * 1e-3;
    }
    if (!metric) return ms;
    if (kind == Kind::kSubmit) out_->submit_s += ms * 1e-3;
    const int k = static_cast<int>(kind);
    if (kind != Kind::kTuple) out_->call_ms[k].push_back(ms);
    out_->allocations[k] +=
        g_allocations.load(std::memory_order_relaxed) - p.allocations;
    out_->control_messages[k] +=
        system_->network().control_messages() - p.control;
    if (traced_) {
      if (kind == Kind::kSubmit) {
        out_->rep_changes[k] += rep_changes_->value() - p.rep_changes;
      }
      out_->groups_dissolved[k] += groups_dissolved_->value() - p.dissolved;
      out_->forwards[k] += forwards_->value() - p.forwards;
      const auto& events = tracer_->events();
      for (size_t i = p.events; i < events.size(); ++i) {
        if (events[i].name == "eval" && events[i].category == "spe") {
          ++out_->evals[k];
        }
      }
    }
    return ms;
  }

  DeliveryCallback MakeCallback(std::vector<Tuple>* keep) {
    return [this, keep](const std::string&, const Tuple& t) {
      const double now = g_clock->Now();
      AllocationPause pause;
      Tracer::Span span;
      if (traced_) span = tracer_->BeginSpan("bench", "callback", -1);
      ++deliveries_;
      if (latency_sink_ != nullptr) {
        latency_sink_->push_back(
            static_cast<float>((now - publish_start_ns_) * 1e-3));
      }
      if (keep != nullptr) keep->push_back(t);
    };
  }

  // Next query of the kind schedule: 0 select-project, 1 aggregate, 2 join.
  std::string NextCql() {
    if (kind_schedule_.empty()) {
      const int joins = static_cast<int>(kKindBlock * kJoinFraction + 0.5);
      const int aggregates =
          static_cast<int>(kKindBlock * kAggregateFraction + 0.5);
      kind_schedule_.assign(kKindBlock, 0);
      std::fill_n(kind_schedule_.begin(), aggregates, 1);
      std::fill_n(kind_schedule_.begin() + aggregates, joins, 2);
      for (int i = kKindBlock - 1; i > 0; --i) {
        std::swap(kind_schedule_[i],
                  kind_schedule_[kind_rng_.NextBounded(i + 1)]);
      }
    }
    const int kind = kind_schedule_.back();
    kind_schedule_.pop_back();
    return generators_[kind]->NextCql();
  }

  const char* QueryKind(const std::string& cql) const {
    if (cql.find(" L, ") != std::string::npos) return "join";
    if (cql.find("GROUP BY") != std::string::npos) return "aggregate";
    return "select";
  }

  // Decides whether a new query joins the oracle sample.
  bool Sample(const std::string& cql) {
    const std::string kind = QueryKind(cql);
    if (phase_ == Phase::kTimed && spec_.churn_pairs > 0) {
      return kind == "select" &&
             sample_rng_.NextBool(spec_.oracle_fresh_fraction);
    }
    int* budget = kind == "join"        ? &join_budget_
                  : kind == "aggregate" ? &aggregate_budget_
                                        : &select_budget_;
    if (*budget == 0) return false;
    --*budget;
    return true;
  }

  void Submit(bool interleaved) {
    g_clock->MaybeRecalibrate();
    QueryInfo q;
    q.cql = NextCql();
    q.phase = phase_;
    const NodeId user = static_cast<NodeId>(user_rng_.NextBounded(kNodes));
    std::vector<Tuple>* keep = nullptr;
    if (Sample(q.cql)) {
      q.tag = StrFormat("s%zu", queries_.size());
      Status st = oracle_->Submit(q.tag, q.cql);
      if (st.ok()) {
        keep = &delivered_[q.tag];
      } else {
        q.tag.clear();
      }
    }
    DeliveryCallback callback = MakeCallback(keep);
    Tracer::Span span;
    if (traced_) span = tracer_->BeginSpan("bench", "submit", -1);
    CallProbe probe = BeginCall();
    Result<std::string> id =
        system_->SubmitQuery(q.cql, user, std::move(callback));
    EndCall(Kind::kSubmit, probe, interleaved);
    span.End();
    Check(id.status());
    if (!id.ok()) {
      if (!q.tag.empty()) (void)oracle_->Remove(q.tag);
      return;
    }
    q.id = *id;
    if (traced_) q.home = HomeOf(q.id);
    ops_.push_back({queries_.size(), true});
    live_.push_back(queries_.size());
    queries_.push_back(std::move(q));
  }

  NodeId HomeOf(const std::string& id) {
    for (NodeId n = 0; n < kNodes; ++n) {
      Processor* p = system_->processor(n);
      if (p != nullptr && p->grouping().GroupOf(id) != nullptr) return n;
    }
    return -1;
  }

  void RemoveRandom(bool interleaved) {
    if (live_.empty()) return;
    g_clock->MaybeRecalibrate();
    const size_t j = victim_rng_.NextBounded(live_.size());
    QueryInfo& q = queries_[live_[j]];
    ops_.push_back({live_[j], false});
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(j));
    // The processor counts representative changes only on submission; on
    // removal a change shows as a surviving group with a new version.
    const GroupingEngine* grouping =
        traced_ ? &system_->processor(q.home)->grouping() : nullptr;
    const QueryGroup* group =
        grouping != nullptr ? grouping->GroupOf(q.id) : nullptr;
    const uint64_t group_id = group != nullptr ? group->group_id : 0;
    const uint64_t version = group != nullptr ? group->version : 0;
    Tracer::Span span;
    if (traced_) span = tracer_->BeginSpan("bench", "remove", -1);
    CallProbe probe = BeginCall();
    Status st = system_->RemoveQuery(q.id);
    EndCall(Kind::kRemove, probe, interleaved);
    span.End();
    Check(st);
    if (group != nullptr && InMetricPhase(Kind::kRemove)) {
      const QueryGroup* after = grouping->FindGroup(group_id);
      if (after != nullptr && after->version != version) {
        ++out_->rep_changes[static_cast<int>(Kind::kRemove)];
      }
    }
    if (!q.tag.empty()) (void)oracle_->Remove(q.tag);
  }

  void InstallBase() {
    select_budget_ = spec_.oracle_select;
    aggregate_budget_ = spec_.oracle_aggregate;
    join_budget_ = spec_.oracle_join;
    queries_.reserve(spec_.base_queries + 2 * spec_.turnover_pairs +
                     spec_.churn_pairs + 1);
    for (int i = 0; i < spec_.base_queries; ++i) {
      Submit(false);
      if (i + 1 == spec_.turnover_population) {
        phase_ = Phase::kTurnover;
        for (int t = 0; t < spec_.turnover_pairs; ++t) {
          RemoveRandom(false);
          Submit(false);
        }
        phase_ = Phase::kSetup;
      }
    }
  }

  // Publishes `hours` of history; every `churn_every` tuples one random live
  // query is removed and a fresh one submitted.
  void Replay(double hours, int churn_every) {
    if (hours <= 0) return;
    const bool metric = InMetricPhase(Kind::kTuple);
    latency_sink_ = metric ? &out_->result_us : nullptr;
    const RegistryReading before = ReadRegistry();
    const Timestamp end = replay_position_ + static_cast<Duration>(hours * kHour);
    int since_churn = 0;
    int pairs = 0;
    while (true) {
      if (!pending_.has_value()) pending_ = replay_->Next();
      if (!pending_.has_value() || pending_->timestamp() >= end) break;
      Tuple tuple = std::move(*pending_);
      pending_.reset();
      const std::string& stream = tuple.schema()->stream_name();
      g_clock->MaybeRecalibrate();
      const uint64_t bytes_before = system_->network().total_bytes();
      const uint64_t deliveries_before = deliveries_;
      Tracer::Span span;
      if (traced_) span = tracer_->BeginSpan("bench", "publish", -1);
      CallProbe probe = BeginCall();
      publish_start_ns_ = probe.start_ns;
      Status st = system_->PublishSourceTuple(stream, tuple);
      const double ms = EndCall(Kind::kTuple, probe, /*interleaved=*/false);
      span.End();
      Check(st);
      if (metric) {
        out_->tuple_phase_s += ms * 1e-3;
        out_->wire_bytes += system_->network().total_bytes() - bytes_before;
        out_->user_deliveries += deliveries_ - deliveries_before;
        ++out_->tuples;
      }
      if (oracle_->Tags().size() > 0) oracle_->Inject(stream, tuple);
      if (traced_ && tracer_->num_events() > kTraceFlushEvents) FlushTrace();
      if (churn_every > 0 && ++since_churn == churn_every &&
          pairs < spec_.churn_pairs) {
        since_churn = 0;
        ++pairs;
        RemoveRandom(true);
        Submit(true);
      }
    }
    // Pairs the history was too short for still happen, after it.
    while (churn_every > 0 && pairs < spec_.churn_pairs) {
      ++pairs;
      RemoveRandom(true);
      Submit(true);
    }
    replay_position_ = end;
    latency_sink_ = nullptr;
    FlushTrace();
    if (metric && traced_) AddRegistryDelta(before, ReadRegistry());
  }

  // Data-plane registry counters at one instant (traced pass only).
  struct RegistryReading {
    uint64_t matches = 0, deliveries = 0, compiles = 0, forwards = 0;
    uint64_t spe_in = 0, spe_out = 0;
    std::vector<uint64_t> match_ns;
  };

  RegistryReading ReadRegistry() const {
    RegistryReading r;
    if (!traced_) return r;
    auto value = [this](const char* name) -> uint64_t {
      const Counter* c = registry_->FindCounter(name);
      return c == nullptr ? 0 : c->value();
    };
    r.matches = value("cbn.matches");
    r.deliveries = value("cbn.deliveries");
    r.compiles = value("cbn.matcher_compiles");
    r.forwards = value("cbn.forwards");
    for (const auto& [name, counter] : registry_->counters()) {
      if (name.rfind("spe.tuples_in{", 0) == 0) r.spe_in += counter->value();
      if (name.rfind("spe.results_out{", 0) == 0) {
        r.spe_out += counter->value();
      }
    }
    if (const Histogram* h = registry_->FindHistogram("cbn.match_ns")) {
      r.match_ns.assign(h->buckets().begin(), h->buckets().end());
    }
    return r;
  }

  void AddRegistryDelta(const RegistryReading& a, const RegistryReading& b) {
    out_->matches += b.matches - a.matches;
    out_->cbn_deliveries += b.deliveries - a.deliveries;
    out_->matcher_compiles += b.compiles - a.compiles;
    out_->tuple_forwards += b.forwards - a.forwards;
    out_->spe_tuples_in += b.spe_in - a.spe_in;
    out_->spe_results_out += b.spe_out - a.spe_out;
    out_->match_ns_buckets.resize(b.match_ns.size(), 0);
    for (size_t i = 0; i < b.match_ns.size(); ++i) {
      out_->match_ns_buckets[i] +=
          b.match_ns[i] - (i < a.match_ns.size() ? a.match_ns[i] : 0);
    }
  }

  // Sums the tracer's closed spans into the pass and clears it, keeping the
  // first timed-phase window for export. Called only between driven calls,
  // so no span is open.
  void FlushTrace() {
    if (!traced_) return;
    const bool metric = InMetricPhase(Kind::kTuple);
    const auto& events = tracer_->events();
    int64_t eval_end = 0;
    for (const Tracer::Event& ev : events) {
      if (ev.phase != 'X') continue;
      if (ev.category == "spe" && ev.name == "eval") {
        if (metric) out_->eval_ns += ev.dur;
        eval_end = std::max<int64_t>(eval_end, ev.ts + ev.dur);
      } else if (ev.category == "bench" && ev.name == "publish") {
        if (metric) out_->publish_ns += ev.dur;
      } else if (ev.category == "bench" && ev.name == "callback" && metric) {
        (ev.ts < eval_end ? out_->callback_in_eval_ns
                          : out_->callback_other_ns) += ev.dur;
      }
    }
    if (phase_ == Phase::kTimed && window_.empty()) {
      const size_t n = std::min(events.size(), kTraceWindowEvents);
      window_.assign(events.begin(), events.begin() + static_cast<std::ptrdiff_t>(n));
    }
    tracer_->Clear();
  }

  void CheckOracle() {
    for (const QueryInfo& q : queries_) {
      if (q.tag.empty()) continue;
      ++out_->attempted;
      ++out_->oracle_checked[QueryKind(q.cql)];
      const std::vector<Tuple>& want = oracle_->ResultsFor(q.tag);
      const std::vector<Tuple>& got = delivered_[q.tag];
      out_->oracle_results += want.size();
      if (!SameMultiset(want, got)) {
        ++out_->failed;
        std::fprintf(stderr,
                     "perfbench: oracle mismatch for \"%s\": %zu delivered, "
                     "%zu expected\n",
                     q.cql.c_str(), got.size(), want.size());
      }
    }
  }

  // Replays the query layer standalone on the round's own queries: times
  // ParseAndAnalyze on every CQL string and GroupingEngine::AddQuery per
  // processor, in the order the system saw them.
  void ReplayQueryLayer() {
    const Phase phase = spec_.metric_phase[static_cast<int>(Kind::kSubmit)];
    std::map<NodeId, std::unique_ptr<GroupingEngine>> engines;
    for (const Op& op : ops_) {
      const QueryInfo& q = queries_[op.query];
      if (q.home < 0) continue;
      auto& engine = engines[q.home];
      if (!engine) {
        engine = std::make_unique<GroupingEngine>(
            &system_->catalog(), GroupingOptions{}, RateEstimatorOptions{},
            StrFormat("p%d_", q.home));
      }
      if (!op.add) {
        (void)engine->RemoveQuery(q.id);
        continue;
      }
      const int64_t t0 = NowNs();
      Result<AnalyzedQuery> analyzed =
          ParseAndAnalyze(q.cql, system_->catalog(), "result_" + q.id);
      const int64_t t1 = NowNs();
      if (!analyzed.ok()) continue;
      (void)engine->AddQuery(q.id, *analyzed);
      const int64_t t2 = NowNs();
      if (q.phase == phase) {
        out_->parse_analyze_us.push_back((t1 - t0) * 1e-3);
        out_->grouping_add_us.push_back((t2 - t1) * 1e-3);
      }
    }
  }

  static constexpr size_t kTraceFlushEvents = 200000;
  static constexpr size_t kTraceWindowEvents = 20000;

  const Spec& spec_;
  const uint64_t seed_;
  const bool traced_;
  const bool count_allocations_;
  PassResult* out_;

  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<Tracer> tracer_;
  Counter* rep_changes_ = nullptr;
  Counter* groups_dissolved_ = nullptr;
  Counter* forwards_ = nullptr;
  std::unique_ptr<CosmosSystem> system_;
  SensorDatasetOptions sensor_options_;
  std::unique_ptr<SensorDataset> sensors_;
  std::unique_ptr<ReplayMerger> replay_;
  std::optional<Tuple> pending_;
  Timestamp replay_position_ = 0;
  std::unique_ptr<QueryWorkloadGenerator> generators_[3];
  Rng kind_rng_;
  std::vector<int> kind_schedule_;
  std::unique_ptr<GroundTruthOracle> oracle_;
  std::map<std::string, std::vector<Tuple>> delivered_;
  Rng user_rng_, sample_rng_, victim_rng_;
  int select_budget_ = 0, aggregate_budget_ = 0, join_budget_ = 0;

  Phase phase_ = Phase::kSetup;
  std::vector<QueryInfo> queries_;
  std::vector<size_t> live_;
  // Successful submissions (add) and removals in the order they were made.
  struct Op {
    size_t query;
    bool add;
  };
  std::vector<Op> ops_;
  uint64_t deliveries_ = 0;
  double publish_start_ns_ = 0;
  std::vector<float>* latency_sink_ = nullptr;
  std::vector<Tracer::Event> window_;
};

// ---- report ----

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  return StrFormat("%.17g", v);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                     metrics[i].name.c_str(),
                     JsonNumber(metrics[i].value).c_str(),
                     metrics[i].unit.c_str());
  }
  return out + "}";
}

// Chrome trace_event JSON of a window of events recorded on a nanosecond
// clock, rescaled to the format's microseconds.
bool WriteTraceWindow(const std::string& path,
                      const std::vector<Tracer::Event>& events) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", f);
  for (size_t i = 0; i < events.size(); ++i) {
    const Tracer::Event& ev = events[i];
    std::string args;
    for (const auto& [key, value] : ev.args) {
      if (!args.empty()) args += ", ";
      args += StrFormat("\"%s\": %s", key.c_str(), value.c_str());
    }
    std::fprintf(f,
                 "{\"name\": %s, \"cat\": %s, \"ph\": \"%c\", "
                 "\"ts\": %.3f, %s\"pid\": 1, \"tid\": %d, "
                 "\"args\": {%s}}%s\n",
                 Tracer::ArgString(ev.name).c_str(),
                 Tracer::ArgString(ev.category).c_str(), ev.phase,
                 ev.ts * 1e-3,
                 ev.phase == 'X'
                     ? StrFormat("\"dur\": %.3f, ", ev.dur * 1e-3).c_str()
                     : "",
                 ev.tid, args.c_str(), i + 1 < events.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  double scale = 1.0;
  std::string trace_out;
};

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::atof(value);
    } else if (key == "--trace") {
      o.trace = std::atoi(value);
    } else if (key == "--scale") {
      o.scale = std::atof(value);
    } else if (key == "--trace-out") {
      o.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || argc % 2 != 1 || o.seconds <= 0 || o.scale <= 0 ||
      (o.trace != 0 && o.trace != 1)) {
    return std::nullopt;
  }
  return o;
}

PassResult RunPass(const Spec& spec, uint64_t seed, int rounds, bool traced,
                   bool count_allocations,
                   std::vector<Tracer::Event>* window) {
  PassResult result;
  for (int r = 0; r < rounds; ++r) {
    const uint64_t round_seed =
        Rng(seed).Derive(static_cast<uint64_t>(r)).NextUint64();
    Round round(spec, round_seed, traced, count_allocations, &result);
    round.Run();
    if (r == 0 && window != nullptr) *window = round.TakeTraceWindow();
  }
  return result;
}

double Calls(const PassResult& p, Kind k) {
  return static_cast<double>(p.calls(k));
}

double CallPercentile(const PassResult& p, Kind k, double q) {
  return Percentile(p.call_ms[static_cast<int>(k)], q);
}

double SubmitsPerS(const PassResult& p) {
  return Ratio(Calls(p, Kind::kSubmit), p.submit_s);
}

double TuplesPerS(const PassResult& p) {
  return Ratio(static_cast<double>(p.tuples), p.tuple_phase_s);
}

std::vector<Metric> EndToEndMetrics(const PassResult& p) {
  return {
      {"setup_s", Median(p.setup_s), "s"},
      {"submit_ms_p50", CallPercentile(p, Kind::kSubmit, 0.50), "ms"},
      {"submit_ms_p90", CallPercentile(p, Kind::kSubmit, 0.90), "ms"},
      {"remove_ms_p50", CallPercentile(p, Kind::kRemove, 0.50), "ms"},
      {"tuples_per_s", TuplesPerS(p), "1/s"},
      {"result_us_p50", Percentile(p.result_us, 0.50), "us"},
      {"result_us_p99", Percentile(p.result_us, 0.99), "us"},
      {"wire_bytes_per_tuple",
       Ratio(static_cast<double>(p.wire_bytes), static_cast<double>(p.tuples)),
       "B"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// Printed as comments only: across seeds their spread is several times the
// largest bound a metric may have (see BENCHMARK.json), because a few calls
// that change a group's representative -- and so re-subscribe every source
// of the group -- take 10 to 100 times as long as the rest, and how many
// such calls a seed draws varies widely.
std::vector<Metric> TailMetrics(const PassResult& p) {
  return {
      {"submits_per_s", SubmitsPerS(p), "1/s"},
      {"remove_ms_p90", CallPercentile(p, Kind::kRemove, 0.90), "ms"},
  };
}

std::vector<Metric> PerLayerMetrics(const PassResult& a,
                                    const PassResult& b) {
  const double tuples = static_cast<double>(b.tuples);
  const double submits = Calls(b, Kind::kSubmit);
  const double removes = Calls(b, Kind::kRemove);
  const int s = static_cast<int>(Kind::kSubmit);
  const int r = static_cast<int>(Kind::kRemove);
  const int t = static_cast<int>(Kind::kTuple);
  const double publish_self_ns = static_cast<double>(
      b.publish_ns - b.eval_ns - b.callback_other_ns);
  const double eval_self_ns =
      static_cast<double>(b.eval_ns - b.callback_in_eval_ns);
  return {
      {"query.parse_analyze_us", Median(b.parse_analyze_us), "us"},
      {"core.grouping_add_us", Median(b.grouping_add_us), "us"},
      {"core.rep_changes_per_submit",
       Ratio(static_cast<double>(b.rep_changes[s]), submits), "count"},
      {"core.rep_changes_per_remove",
       Ratio(static_cast<double>(b.rep_changes[r]), removes), "count"},
      {"core.groups_dissolved_per_remove",
       Ratio(static_cast<double>(b.groups_dissolved[r]), removes), "count"},
      {"core.grouping_ratio",
       Ratio(static_cast<double>(b.groups_after_setup),
             static_cast<double>(b.queries_after_setup)),
       "ratio"},
      {"core.result_yield",
       Ratio(static_cast<double>(b.user_deliveries),
             static_cast<double>(b.spe_results_out)),
       "ratio"},
      {"cbn.control_msgs_per_submit",
       Ratio(static_cast<double>(b.control_messages[s]), submits), "count"},
      {"cbn.control_msgs_per_remove",
       Ratio(static_cast<double>(b.control_messages[r]), removes), "count"},
      {"cbn.table_entries",
       Ratio(static_cast<double>(b.table_entries),
             static_cast<double>(b.setup_s.size())),
       "count"},
      {"cbn.matcher_compiles_per_tuple",
       Ratio(static_cast<double>(b.matcher_compiles), tuples), "count"},
      {"cbn.forwards_per_tuple",
       Ratio(static_cast<double>(b.tuple_forwards), tuples), "count"},
      {"cbn.matches_per_tuple", Ratio(static_cast<double>(b.matches), tuples),
       "count"},
      {"cbn.deliveries_per_tuple",
       Ratio(static_cast<double>(b.cbn_deliveries), tuples), "count"},
      {"cbn.match_ns_p50", HistogramQuantile(b.match_ns_buckets, 0.5), "ns"},
      {"cbn.publish_self_us", Ratio(publish_self_ns * 1e-3, tuples), "us"},
      {"cbn.forwards_per_submit",
       Ratio(static_cast<double>(b.forwards[s]), submits), "count"},
      {"spe.tuples_in_per_tuple",
       Ratio(static_cast<double>(b.spe_tuples_in), tuples), "count"},
      {"spe.results_out_per_tuple",
       Ratio(static_cast<double>(b.spe_results_out), tuples), "count"},
      {"spe.eval_us_per_tuple", Ratio(eval_self_ns * 1e-3, tuples), "us"},
      {"spe.eval_share",
       Ratio(static_cast<double>(b.eval_ns), static_cast<double>(b.publish_ns)),
       "ratio"},
      {"spe.evals_per_submit", Ratio(static_cast<double>(b.evals[s]), submits),
       "count"},
      {"trace.attributed_frac",
       Ratio(publish_self_ns + eval_self_ns, static_cast<double>(b.publish_ns)),
       "ratio"},
      {"alloc.per_tuple",
       Ratio(static_cast<double>(a.allocations[t]),
             static_cast<double>(a.tuples)),
       "count"},
      {"alloc.per_submit",
       Ratio(static_cast<double>(a.allocations[s]), Calls(a, Kind::kSubmit)),
       "count"},
      {"alloc.per_remove",
       Ratio(static_cast<double>(a.allocations[r]), Calls(a, Kind::kRemove)),
       "count"},
      {"setup.install_s", Median(a.install_s), "s"},
      {"setup.warmup_s", Median(a.warmup_s), "s"},
      {"trace.overhead_frac", 1.0 - Ratio(TuplesPerS(b), TuplesPerS(a)),
       "ratio"},
  };
}

// Counts that must repeat exactly for a given seed.
std::string DeterministicCounters(const PassResult& p) {
  return StrFormat(
      "{\"submits\": %zu, \"removes\": %zu, \"tuples\": %llu, "
      "\"wire_bytes\": %llu, \"user_deliveries\": %llu, "
      "\"oracle_results\": %llu, \"setup_control_messages\": %llu, "
      "\"table_entries\": %llu, \"groups_after_setup\": %llu, "
      "\"control_messages_submit\": %llu, "
      "\"control_messages_remove\": %llu, \"alloc_tuple\": %llu, "
      "\"alloc_submit\": %llu, \"alloc_remove\": %llu}",
      p.calls(Kind::kSubmit), p.calls(Kind::kRemove),
      static_cast<unsigned long long>(p.tuples),
      static_cast<unsigned long long>(p.wire_bytes),
      static_cast<unsigned long long>(p.user_deliveries),
      static_cast<unsigned long long>(p.oracle_results),
      static_cast<unsigned long long>(p.setup_control_messages),
      static_cast<unsigned long long>(p.table_entries),
      static_cast<unsigned long long>(p.groups_after_setup),
      static_cast<unsigned long long>(p.control_messages[0]),
      static_cast<unsigned long long>(p.control_messages[1]),
      static_cast<unsigned long long>(p.allocations[2]),
      static_cast<unsigned long long>(p.allocations[0]),
      static_cast<unsigned long long>(p.allocations[1]));
}

void PrintSampleCounts(const PassResult& p) {
  std::string oracle;
  for (const auto& [kind, n] : p.oracle_checked) {
    oracle += StrFormat("%s%s:%llu", oracle.empty() ? "" : ",", kind.c_str(),
                        static_cast<unsigned long long>(n));
  }
  std::printf(
      "# samples: setups=%zu submits=%zu removes=%zu tuples=%llu "
      "results=%zu oracle_queries=%s oracle_results=%llu\n",
      p.setup_s.size(), p.calls(Kind::kSubmit), p.calls(Kind::kRemove),
      static_cast<unsigned long long>(p.tuples), p.result_us.size(),
      oracle.c_str(), static_cast<unsigned long long>(p.oracle_results));
}

int Main(int argc, char** argv) {
  std::optional<Options> options = ParseArgs(argc, argv);
  if (!options.has_value()) {
    std::fprintf(stderr,
                 "usage: cosmos_perfbench --workload stream|churn "
                 "--seed N --seconds S --trace 0|1 [--scale F] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  std::optional<Spec> spec =
      MakeSpec(options->workload, options->seconds, options->scale);
  if (!spec.has_value()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options->workload.c_str());
    return 2;
  }

  WorkClock clock;
  g_clock = &clock;
  std::printf("# workload=%s seed=%llu rounds=%d trace=%d\n",
              spec->name.c_str(),
              static_cast<unsigned long long>(options->seed), spec->rounds,
              options->trace);
  // The traced run measures its first few rounds twice: untraced with
  // allocation counting, then traced.
  const int rounds =
      options->trace == 1 ? std::min(spec->rounds, kTracedRounds) : spec->rounds;
  PassResult untraced =
      RunPass(*spec, options->seed, rounds, /*traced=*/false,
              /*count_allocations=*/options->trace == 1, nullptr);
  PassResult reported = untraced;
  std::vector<Metric> metrics;
  if (options->trace == 0) {
    metrics = EndToEndMetrics(untraced);
  } else {
    std::vector<Tracer::Event> window;
    PassResult traced =
        RunPass(*spec, options->seed, rounds, /*traced=*/true,
                /*count_allocations=*/false, &window);
    metrics = PerLayerMetrics(untraced, traced);
    reported.attempted += traced.attempted;
    reported.failed += traced.failed;
    if (!options->trace_out.empty() &&
        !WriteTraceWindow(options->trace_out, window)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options->trace_out.c_str());
      return 1;
    }
  }

  PrintSampleCounts(untraced);
  std::printf("# host speed (median, nominal 1): %.4f\n",
              g_clock->MedianSpeed());
  for (const Metric& m : TailMetrics(untraced)) {
    std::printf("# %-34s %16.6f %s (not gated)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("# %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("counters %s\n", DeterministicCounters(untraced).c_str());
  const bool correct = reported.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(reported.attempted),
      static_cast<unsigned long long>(reported.failed),
      MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace cosmos

int main(int argc, char** argv) { return cosmos::Main(argc, argv); }
