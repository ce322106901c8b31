// Ablation abl-greedy (DESIGN.md): the incremental greedy grouping of §4
// vs. (a) no merging and (b) an exhaustive best-pair baseline that, for
// each insertion, evaluates the *exact* composed representative for every
// compatible group instead of the fast rate prediction. Reports the merged
// result-rate total (lower is better) and wall time.

#include <chrono>
#include <cstdio>

#include "common/string_util.h"
#include "core/grouping.h"
#include "core/workload.h"
#include "stream/sensor_dataset.h"

using namespace cosmos;

namespace {

struct Outcome {
  size_t groups = 0;
  double merged_rate = 0.0;
  double unmerged_rate = 0.0;
  double millis = 0.0;
};

Outcome RunGreedy(const Catalog& catalog, const std::vector<std::string>& cqls,
                  size_t max_candidates) {
  GroupingOptions gopts;
  gopts.max_candidates = max_candidates;
  GroupingEngine engine(&catalog, gopts);
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < cqls.size(); ++i) {
    auto analyzed =
        ParseAndAnalyze(cqls[i], catalog, StrFormat("r%zu", i));
    if (!analyzed.ok()) continue;
    (void)engine.AddQuery(StrFormat("q%zu", i), *analyzed);
  }
  auto end = std::chrono::steady_clock::now();
  Outcome o;
  o.groups = engine.num_groups();
  o.merged_rate = engine.TotalRepresentativeRate();
  o.unmerged_rate = engine.TotalMemberRate();
  o.millis =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count() /
      1000.0;
  return o;
}

// Exhaustive baseline: exact composition against every compatible group,
// keeping the group whose exact composed representative minimizes rate.
Outcome RunExhaustive(const Catalog& catalog,
                      const std::vector<std::string>& cqls) {
  RateEstimator estimator(&catalog);
  struct Group {
    std::vector<AnalyzedQuery> members;
    AnalyzedQuery rep;
    double rate;
  };
  std::vector<Group> groups;
  double unmerged = 0.0;
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < cqls.size(); ++i) {
    auto analyzed =
        ParseAndAnalyze(cqls[i], catalog, StrFormat("r%zu", i));
    if (!analyzed.ok()) continue;
    double rate = estimator.EstimateOutputRate(*analyzed);
    unmerged += rate;
    int best = -1;
    double best_marginal = 0.0;
    AnalyzedQuery best_rep;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (!MergeCompatible(groups[g].rep, *analyzed)) continue;
      std::vector<const AnalyzedQuery*> pair = {&groups[g].rep,
                                                &*analyzed};
      auto rep = ComposeRepresentative(pair, catalog,
                                       StrFormat("g%zu", g));
      if (!rep.ok()) continue;
      double merged_rate = estimator.EstimateOutputRate(*rep);
      double marginal = groups[g].rate + rate - merged_rate;
      if (marginal > best_marginal) {
        best_marginal = marginal;
        best = static_cast<int>(g);
        best_rep = std::move(*rep);
      }
    }
    if (best >= 0) {
      groups[best].members.push_back(*analyzed);
      groups[best].rep = std::move(best_rep);
      groups[best].rate = estimator.EstimateOutputRate(groups[best].rep);
    } else {
      Group g;
      g.members.push_back(*analyzed);
      g.rep = *analyzed;
      g.rate = rate;
      groups.push_back(std::move(g));
    }
  }
  auto end = std::chrono::steady_clock::now();
  Outcome o;
  o.groups = groups.size();
  for (const auto& g : groups) o.merged_rate += g.rate;
  o.unmerged_rate = unmerged;
  o.millis =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count() /
      1000.0;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  int num_queries = argc > 1 ? std::atoi(argv[1]) : 400;
  double theta = argc > 2 ? std::atof(argv[2]) : 1.5;

  Catalog catalog;
  SensorDataset sensors;
  (void)sensors.RegisterAll(catalog);

  WorkloadOptions wl;
  wl.zipf_theta = theta;
  wl.seed = 4242;
  QueryWorkloadGenerator gen(&catalog, wl);
  std::vector<std::string> cqls;
  for (int i = 0; i < num_queries; ++i) cqls.push_back(gen.NextCql());

  std::printf("# Ablation: grouping policy (%d zipf(%.1f) queries)\n",
              num_queries, theta);
  std::printf("%-24s %8s %14s %14s %10s\n", "policy", "groups",
              "merged B/s", "saved", "ms");

  Outcome none = RunGreedy(catalog, cqls, 0);
  Outcome greedy = RunGreedy(catalog, cqls, 256);
  Outcome exhaustive = RunExhaustive(catalog, cqls);

  auto print = [](const char* name, const Outcome& o) {
    std::printf("%-24s %8zu %14.1f %13.1f%% %10.1f\n", name, o.groups,
                o.merged_rate,
                100.0 * (o.unmerged_rate - o.merged_rate) /
                    std::max(1.0, o.unmerged_rate),
                o.millis);
  };
  print("no merging", none);
  print("greedy (fast estimate)", greedy);
  print("exhaustive (exact)", exhaustive);

  return greedy.merged_rate <= none.merged_rate ? 0 : 1;
}
