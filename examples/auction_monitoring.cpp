// The auction monitoring application of the paper's Table 1 / Figure 3:
// two users issue the overlapping join queries q1 and q2; COSMOS merges
// them into the representative q3, runs q3 once on the SPE at node n1, and
// splits the shared result stream s3 back into s1 and s2 at the branch
// node n2 using re-tightened CBN profiles.
//
//        n1 (processor, SPE)
//        |
//        n2 (broker — the split point)
//       .  .
//      n3    n4
//     (q1)  (q2)
//
// Sources publish at n1's side so the result stream s3 crosses n1–n2 once.

#include <cstdio>

#include "core/system.h"
#include "query/unparser.h"
#include "stream/auction_dataset.h"

using namespace cosmos;

namespace {

const char* kQ1 =
    "SELECT O.* FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C "
    "WHERE O.itemID = C.itemID";

const char* kQ2 =
    "SELECT O.itemID, O.timestamp, C.buyerID, C.timestamp "
    "FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C "
    "WHERE O.itemID = C.itemID";

}  // namespace

int main() {
  std::vector<Edge> edges = {{0, 1, 1.0}, {1, 2, 1.0}, {1, 3, 1.0}};
  auto tree = DisseminationTree::FromEdges(4, edges);
  if (!tree.ok()) return 1;

  CosmosSystem system(std::move(*tree));
  AuctionDatasetOptions opts;
  opts.num_auctions = 2000;
  opts.max_duration = 8 * kHour;
  AuctionDataset auctions(opts);

  (void)system.RegisterSource(AuctionDataset::OpenAuctionSchema(), 2.0, 0);
  (void)system.RegisterSource(AuctionDataset::ClosedAuctionSchema(), 1.8, 0);
  (void)system.AddProcessor(0);  // n1

  int q1_results = 0;
  int q2_results = 0;
  auto q1 = system.SubmitQuery(kQ1, /*user_node=*/2,
                               [&](const std::string&, const Tuple&) {
                                 ++q1_results;
                               });
  auto q2 = system.SubmitQuery(kQ2, /*user_node=*/3,
                               [&](const std::string&, const Tuple&) {
                                 ++q2_results;
                               });
  if (!q1.ok() || !q2.ok()) {
    std::fprintf(stderr, "submit failed: %s %s\n",
                 q1.status().ToString().c_str(),
                 q2.status().ToString().c_str());
    return 1;
  }

  const Processor* proc = system.processor(0);
  std::printf("queries submitted: %s, %s\n", q1->c_str(), q2->c_str());
  std::printf("query groups on the processor: %zu (merged: %s)\n",
              proc->grouping().num_groups(),
              proc->grouping().num_groups() == 1 ? "yes" : "no");
  for (const auto& [gid, group] : proc->grouping().groups()) {
    std::printf("  representative (the paper's q3):\n    %s\n",
                Unparse(group.representative).c_str());
  }

  // Stream the auction history.
  auto replay = auctions.MakeReplay();
  while (auto t = replay->Next()) {
    (void)system.PublishSourceTuple(t->schema()->stream_name(), *t);
  }

  std::printf("q1 results (closed within 3h): %d\n", q1_results);
  std::printf("q2 results (closed within 5h): %d\n", q2_results);
  std::printf("q1 is a subset of q2's auctions, as expected: %s\n",
              q1_results <= q2_results ? "yes" : "NO (bug!)");

  // Figure 3's point: bytes on the shared n1-n2 link vs the two last-mile
  // links.
  const auto& stats = system.network().link_stats();
  for (const auto& [key, st] : stats) {
    std::printf("  link %d-%d: %llu datagrams, %llu bytes\n", key.first,
                key.second, static_cast<unsigned long long>(st.datagrams),
                static_cast<unsigned long long>(st.bytes));
  }
  return (q1_results > 0 && q1_results <= q2_results) ? 0 : 1;
}
