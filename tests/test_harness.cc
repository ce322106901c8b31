#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "core/system.h"
#include "harness/oracle.h"
#include "harness/runner.h"
#include "harness/scenario.h"

namespace cosmos {
namespace {

// The DST harness itself must be trustworthy: scenarios are pure functions
// of the seed, runs are deterministic, and the shrinker only ever returns
// scenarios on which the failure predicate still holds.

TEST(DstScenario, SameSeedSameScenario) {
  DstScenario a = GenerateScenario(4242);
  DstScenario b = GenerateScenario(4242);
  EXPECT_EQ(a.ToString(), b.ToString());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].ToString(), b.events[i].ToString()) << "event " << i;
  }
}

TEST(DstScenario, DifferentSeedsDiffer) {
  // Not guaranteed per-pair in general, but these seeds must not collide —
  // a collision would mean the seed barely feeds the generator.
  EXPECT_NE(GenerateScenario(1).ToString(), GenerateScenario(2).ToString());
  EXPECT_NE(GenerateScenario(1).ToString(), GenerateScenario(3).ToString());
}

// Over the dst_smoke seeds each regime knob leaves its shipped value
// somewhere, the shipped regime runs too, covering prune moves only where
// subscriptions flood, and the repro names the regime.
TEST(DstScenario, SeedsDrawTheRegime) {
  const SystemOptions shipped;
  int production = 0;
  int scoped_covering_moved = 0;
  std::map<std::string, int> moved;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const DstScenario s = GenerateScenario(seed);
    const DstRegime& r = s.regime;
    const std::map<std::string, bool> knobs = {
        {"advertisement_scoping", r.advertisement_scoping !=
                                      shipped.network.advertisement_scoping},
        {"covering_prune",
         r.covering_prune != shipped.network.covering_prune},
        {"early_projection",
         r.early_projection != shipped.network.early_projection},
        {"enable_merging",
         r.enable_merging != shipped.processor.enable_merging},
    };
    bool any = false;
    for (const auto& [knob, differs] : knobs) {
      moved[knob] += differs;
      any = any || differs;
    }
    production += !any;
    // Covering acts along scoped paths too, so scoped seeds draw it.
    scoped_covering_moved +=
        r.advertisement_scoping &&
        r.covering_prune != shipped.network.covering_prune;
    EXPECT_NE(s.ToString().find("regime: " + r.ToString() + "\n"),
              std::string::npos)
        << "seed " << seed;
  }
  EXPECT_GT(production, 0);
  EXPECT_GT(scoped_covering_moved, 0);
  EXPECT_EQ(moved.size(), 4u);
  for (const auto& [knob, seeds] : moved) EXPECT_GT(seeds, 0) << knob;
}

TEST(DstScenario, RespectsOptionEnvelope) {
  DstOptions opts;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    DstScenario s = GenerateScenario(seed, opts);
    EXPECT_GE(s.num_nodes, opts.min_nodes) << "seed " << seed;
    EXPECT_LE(s.num_nodes, opts.max_nodes) << "seed " << seed;
    EXPECT_GE(static_cast<int>(s.sources.size()), opts.min_streams);
    EXPECT_LE(static_cast<int>(s.sources.size()), opts.max_streams);
    EXPECT_GE(static_cast<int>(s.processors.size()), opts.min_processors);
    EXPECT_LE(static_cast<int>(s.processors.size()), opts.max_processors);
    EXPECT_GE(static_cast<int>(s.initial_queries.size()),
              opts.min_initial_queries);
    EXPECT_LE(static_cast<int>(s.initial_queries.size()),
              opts.max_initial_queries);
    for (NodeId p : s.processors) {
      EXPECT_GE(p, 0);
      EXPECT_LT(p, s.num_nodes);
    }
    for (const auto& src : s.sources) {
      EXPECT_GE(src.publisher, 0);
      EXPECT_LT(src.publisher, s.num_nodes);
      ASSERT_NE(src.schema, nullptr);
    }
  }
}

TEST(DstScenario, EventsAreTimeOrdered) {
  for (uint64_t seed : {1ull, 7ull, 313ull, 982ull}) {
    DstScenario s = GenerateScenario(seed);
    for (size_t i = 1; i < s.events.size(); ++i) {
      EXPECT_LE(s.events[i - 1].at, s.events[i].at)
          << "seed " << seed << " event " << i;
    }
  }
}

TEST(DstScenario, QueryTagsAreUnique) {
  DstScenario s = GenerateScenario(55);
  std::set<std::string> tags;
  for (const auto& q : s.initial_queries) {
    EXPECT_TRUE(tags.insert(q.tag).second) << "duplicate tag " << q.tag;
  }
  for (const auto& e : s.events) {
    if (e.type == DstEventType::kSubmitQuery) {
      EXPECT_TRUE(tags.insert(e.query.tag).second)
          << "duplicate tag " << e.query.tag;
    }
  }
}

TEST(DstRunner, RunIsDeterministic) {
  DstScenario s = GenerateScenario(17);
  DstReport a = RunScenario(s);
  DstReport b = RunScenario(s);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.Summary(), b.Summary());
  EXPECT_EQ(a.failures, b.failures);
}

TEST(DstRunner, SmokeSeedsHaveSubstance) {
  // A scenario that injects nothing or submits nothing tests nothing; the
  // generator's envelope guarantees every seed has observable work.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    DstScenario s = GenerateScenario(seed);
    DstReport r = RunScenario(s);
    EXPECT_TRUE(r.ok) << "seed " << seed << "\n" << r.Summary();
    EXPECT_GT(r.tuples_injected, 0u) << "seed " << seed;
    EXPECT_GT(r.queries_submitted, 0u) << "seed " << seed;
    EXPECT_GT(r.results_expected, 0u) << "seed " << seed;
  }
}

TEST(DstShrinker, PreservesThePredicate) {
  DstScenario s = GenerateScenario(23);
  ASSERT_GT(s.events.size(), 4u);
  // Synthetic failure: "scenario still contains an inject event". The
  // shrinker must converge to exactly one event without ever returning a
  // scenario where the predicate fails.
  auto has_inject = [](const DstScenario& sc) {
    return std::any_of(sc.events.begin(), sc.events.end(),
                       [](const DstEvent& e) {
                         return e.type == DstEventType::kInjectTuple;
                       });
  };
  DstScenario minimized = ShrinkScenario(s, has_inject);
  EXPECT_TRUE(has_inject(minimized));
  EXPECT_EQ(minimized.events.size(), 1u);
  EXPECT_EQ(minimized.events[0].type, DstEventType::kInjectTuple);
  // Initial queries are not needed by the predicate, so they are dropped.
  EXPECT_TRUE(minimized.initial_queries.empty());
}

TEST(DstShrinker, RespectsBudget) {
  DstScenario s = GenerateScenario(29);
  size_t calls = 0;
  auto counting = [&calls](const DstScenario& sc) {
    ++calls;
    return !sc.events.empty();
  };
  (void)ShrinkScenario(s, counting, /*budget=*/10);
  EXPECT_LE(calls, 10u);
}

TEST(DstShrinker, KeepsFailingScenarioWhenNothingCanBeDropped) {
  DstScenario s = GenerateScenario(31);
  // Predicate pinned to the exact event count: any drop breaks it, so the
  // shrinker must return the original scenario unchanged.
  size_t original = s.events.size();
  auto exact = [original](const DstScenario& sc) {
    return sc.events.size() == original;
  };
  DstScenario minimized = ShrinkScenario(s, exact);
  EXPECT_EQ(minimized.events.size(), original);
}

TEST(DstOracle, SelectionFiltersAndRemoveFreezesResults) {
  Catalog catalog;
  auto schema = std::make_shared<Schema>(
      "w", std::vector<AttributeDef>{{"station_id", ValueType::kInt64},
                                     {"m0", ValueType::kDouble},
                                     {"timestamp", ValueType::kInt64}});
  ASSERT_TRUE(catalog.RegisterStream(schema, 0).ok());

  GroundTruthOracle oracle(&catalog);
  ASSERT_TRUE(oracle.Submit("q", "SELECT m0 FROM w [Range 1 Minute] "
                                 "WHERE m0 > 50").ok());
  auto inject = [&](int64_t ts, double m0) {
    oracle.Inject("w", Tuple(schema, {Value(int64_t{1}), Value(m0),
                                      Value(ts)},
                             static_cast<Timestamp>(ts)));
  };
  inject(1000, 60.0);
  inject(2000, 40.0);  // filtered out
  inject(3000, 70.0);
  ASSERT_EQ(oracle.ResultsFor("q").size(), 2u);

  ASSERT_TRUE(oracle.Remove("q").ok());
  inject(4000, 80.0);  // after removal: not accumulated
  EXPECT_EQ(oracle.ResultsFor("q").size(), 2u);
}

TEST(DstOracle, StaticEvaluateMatchesIncrementalInjection) {
  Catalog catalog;
  auto schema = std::make_shared<Schema>(
      "w", std::vector<AttributeDef>{{"station_id", ValueType::kInt64},
                                     {"m0", ValueType::kDouble},
                                     {"timestamp", ValueType::kInt64}});
  ASSERT_TRUE(catalog.RegisterStream(schema, 0).ok());

  GroundTruthOracle oracle(&catalog);
  ASSERT_TRUE(oracle.Submit("q", "SELECT m0 FROM w [Range 1 Minute] "
                                 "WHERE m0 >= 25").ok());
  std::vector<std::pair<std::string, Tuple>> log;
  for (int64_t i = 0; i < 20; ++i) {
    Tuple t(schema, {Value(i % 3), Value(static_cast<double>(i) * 5.0),
                     Value(i * 1000)},
            static_cast<Timestamp>(i) * 1000);
    log.emplace_back("w", t);
    oracle.Inject("w", t);
  }
  const AnalyzedQuery* q = oracle.Query("q");
  ASSERT_NE(q, nullptr);
  std::vector<Tuple> batch = GroundTruthOracle::Evaluate(*q, log);
  const std::vector<Tuple>& incremental = oracle.ResultsFor("q");
  ASSERT_EQ(batch.size(), incremental.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].ToString(), incremental[i].ToString()) << "row " << i;
  }
}

}  // namespace
}  // namespace cosmos
