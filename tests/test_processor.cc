#include "core/processor.h"

#include <gtest/gtest.h>

#include "stream/auction_dataset.h"

namespace cosmos {
namespace {

// n0 (processor + sources) - n1 - n2, n1 - n3 (users at n2/n3).
class ProcessorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tree_ = std::make_unique<DisseminationTree>(
        DisseminationTree::FromEdges(
            4, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{1, 3, 1.0}})
            .value());
    network_ = std::make_unique<ContentBasedNetwork>(*tree_);
    open_pub_ = network_->Advertise(0, "OpenAuction");
    closed_pub_ = network_->Advertise(0, "ClosedAuction");
    AuctionDataset auctions;
    ASSERT_TRUE(auctions.RegisterAll(catalog_).ok());
  }

  std::unique_ptr<Processor> MakeProcessor(bool merging = true) {
    ProcessorOptions opts;
    opts.enable_merging = merging;
    return std::make_unique<Processor>(0, &catalog_, network_.get(), opts);
  }

  // Analyzes `cql` as CosmosSystem::SubmitQuery does, then hands the
  // analyzed query to `proc`.
  Status Submit(Processor* proc, const std::string& query_id,
                const std::string& cql, NodeId user_node,
                DeliveryCallback callback) {
    auto analyzed = ParseAndAnalyze(cql, catalog_, "result_" + query_id);
    EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    if (!analyzed.ok()) return analyzed.status();
    return proc->SubmitQuery(query_id, std::move(*analyzed), user_node,
                             std::move(callback));
  }

  Tuple Open(int64_t item, double price, Timestamp ts) {
    return Tuple(AuctionDataset::OpenAuctionSchema(),
                 {Value(item), Value(int64_t{1}), Value(price),
                  Value(static_cast<int64_t>(ts))},
                 ts);
  }

  Catalog catalog_;
  std::unique_ptr<DisseminationTree> tree_;
  std::unique_ptr<ContentBasedNetwork> network_;
  // The sources at n0.
  ContentBasedNetwork::Publisher open_pub_;
  ContentBasedNetwork::Publisher closed_pub_;
};

TEST_F(ProcessorTest, SubmitInstallsRepresentativeAndDelivers) {
  auto proc = MakeProcessor();
  int hits = 0;
  ASSERT_TRUE(Submit(proc.get(), "q1",
                     "SELECT itemID FROM OpenAuction WHERE "
                     "start_price > 100",
                     /*user_node=*/2,
                     [&](const std::string&, const Tuple&) {
                       ++hits;
                     })
                  .ok());
  EXPECT_EQ(proc->num_queries(), 1u);
  EXPECT_EQ(proc->num_installed_representatives(), 1u);
  network_->Publish(open_pub_, Open(1, 150, 0));
  network_->Publish(open_pub_, Open(2, 50, 1));
  EXPECT_EQ(hits, 1);
}

TEST_F(ProcessorTest, DuplicateIdRejected) {
  auto proc = MakeProcessor();
  ASSERT_TRUE(
      Submit(proc.get(), "q", "SELECT itemID FROM OpenAuction", 2, nullptr)
          .ok());
  EXPECT_EQ(Submit(proc.get(), "q", "SELECT itemID FROM OpenAuction", 2,
                   nullptr)
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ProcessorTest, MergedQueriesShareOneRepresentative) {
  auto proc = MakeProcessor(/*merging=*/true);
  int hits2 = 0, hits3 = 0;
  ASSERT_TRUE(Submit(proc.get(), "q1",
                     "SELECT itemID, start_price FROM "
                     "OpenAuction WHERE "
                     "start_price >= 100 AND start_price <= 500",
                     2,
                     [&](const std::string&, const Tuple&) {
                       ++hits2;
                     })
                  .ok());
  ASSERT_TRUE(Submit(proc.get(), "q2",
                     "SELECT itemID, start_price FROM "
                     "OpenAuction WHERE "
                     "start_price >= 300 AND start_price <= 800",
                     3,
                     [&](const std::string&, const Tuple&) {
                       ++hits3;
                     })
                  .ok());
  EXPECT_EQ(proc->grouping().num_groups(), 1u);
  EXPECT_EQ(proc->num_installed_representatives(), 1u);

  network_->Publish(open_pub_, Open(1, 200, 0));  // q1 only
  network_->Publish(open_pub_, Open(2, 400, 1));  // both
  network_->Publish(open_pub_, Open(3, 700, 2));  // q2 only
  network_->Publish(open_pub_, Open(4, 900, 3));  // neither
  EXPECT_EQ(hits2, 2);
  EXPECT_EQ(hits3, 2);
}

TEST_F(ProcessorTest, UnmergedProcessorKeepsQueriesSeparate) {
  auto proc = MakeProcessor(/*merging=*/false);
  ASSERT_TRUE(Submit(proc.get(), "q1", "SELECT itemID FROM OpenAuction", 2,
                     nullptr)
                  .ok());
  ASSERT_TRUE(Submit(proc.get(), "q2", "SELECT itemID FROM OpenAuction", 3,
                     nullptr)
                  .ok());
  EXPECT_EQ(proc->grouping().num_groups(), 2u);
  EXPECT_EQ(proc->num_installed_representatives(), 2u);
}

TEST_F(ProcessorTest, LateJoinerStillGetsOnlyItsResults) {
  auto proc = MakeProcessor();
  int hits_q1 = 0, hits_q2 = 0;
  ASSERT_TRUE(Submit(proc.get(), "q1",
                     "SELECT itemID, start_price FROM "
                     "OpenAuction WHERE "
                     "start_price >= 100 AND start_price <= 200",
                     2,
                     [&](const std::string&, const Tuple&) {
                       ++hits_q1;
                     })
                  .ok());
  network_->Publish(open_pub_, Open(1, 150, 0));
  EXPECT_EQ(hits_q1, 1);
  // Second query widens the group (version bump + resubscription of q1).
  ASSERT_TRUE(Submit(proc.get(), "q2",
                     "SELECT itemID, start_price FROM "
                     "OpenAuction WHERE "
                     "start_price >= 150 AND start_price <= 400",
                     3,
                     [&](const std::string&, const Tuple&) {
                       ++hits_q2;
                     })
                  .ok());
  network_->Publish(open_pub_, Open(2, 180, 1));  // both
  network_->Publish(open_pub_, Open(3, 300, 2));  // q2 only
  EXPECT_EQ(hits_q1, 2);
  EXPECT_EQ(hits_q2, 2);
}

TEST_F(ProcessorTest, RemoveQueryStopsItsDeliveries) {
  auto proc = MakeProcessor();
  int hits1 = 0, hits2 = 0;
  ASSERT_TRUE(Submit(
                      proc.get(), "q1", "SELECT itemID FROM OpenAuction", 2,
                      [&](const std::string&, const Tuple&) { ++hits1; })
                  .ok());
  ASSERT_TRUE(Submit(
                      proc.get(), "q2", "SELECT itemID FROM OpenAuction", 3,
                      [&](const std::string&, const Tuple&) { ++hits2; })
                  .ok());
  ASSERT_TRUE(proc->RemoveQuery("q1").ok());
  EXPECT_EQ(proc->RemoveQuery("q1").code(), StatusCode::kNotFound);
  network_->Publish(open_pub_, Open(1, 10, 0));
  EXPECT_EQ(hits1, 0);
  EXPECT_EQ(hits2, 1);
}

TEST_F(ProcessorTest, RemovingLastQueryTearsDownEverything) {
  auto proc = MakeProcessor();
  ASSERT_TRUE(Submit(proc.get(), "q", "SELECT itemID FROM OpenAuction", 2,
                     nullptr)
                  .ok());
  ASSERT_TRUE(proc->RemoveQuery("q").ok());
  EXPECT_EQ(proc->num_installed_representatives(), 0u);
  // No dangling subscriptions: publishing moves no bytes.
  network_->ResetStats();
  network_->Publish(open_pub_, Open(1, 10, 0));
  EXPECT_EQ(network_->total_bytes(), 0u);
  EXPECT_EQ(network_->total_deliveries(), 0u);
}

// A self-join is rejected at submit: the user profile cannot be composed,
// because AlignSources needs distinct streams. The rejection happens after
// the group's plan, source subscription and result advertisement were
// installed, and must take all of them back.
TEST_F(ProcessorTest, RejectedSubmitLeavesNothingInstalled) {
  auto proc = MakeProcessor();
  const Status st = Submit(proc.get(), "q",
                           "SELECT A.itemID FROM OpenAuction A, OpenAuction B "
                           "WHERE A.itemID = B.itemID",
                           2, nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(proc->num_queries(), 0u);
  EXPECT_EQ(proc->grouping().groups().size(), 0u);
  EXPECT_EQ(proc->num_installed_representatives(), 0u);
  size_t subscriptions = 0;
  network_->ForEachSubscription(
      [&subscriptions](NodeId, const Profile&) { ++subscriptions; });
  EXPECT_EQ(subscriptions, 0u);
  EXPECT_EQ(network_->TotalTableEntries(), 0u);
  EXPECT_EQ(network_->PublishersOf("p0_grp_1_v1"), nullptr);
}

TEST_F(ProcessorTest, SourceSubscriptionIsShared) {
  // Two singleton groups over the same stream: the processor holds one
  // merged source subscription, so each source tuple enters the SPE once.
  auto proc = MakeProcessor(/*merging=*/false);
  int hits1 = 0, hits2 = 0;
  ASSERT_TRUE(Submit(
                      proc.get(), "q1", "SELECT itemID FROM OpenAuction", 2,
                      [&](const std::string&, const Tuple&) { ++hits1; })
                  .ok());
  ASSERT_TRUE(Submit(
                      proc.get(), "q2", "SELECT itemID FROM OpenAuction", 3,
                      [&](const std::string&, const Tuple&) { ++hits2; })
                  .ok());
  network_->Publish(open_pub_, Open(1, 10, 0));
  EXPECT_EQ(hits1, 1);  // not 2: no duplicate source delivery
  EXPECT_EQ(hits2, 1);
}

TEST_F(ProcessorTest, SourceSubscriptionPerStreamTouchesOnlyChangedStreams) {
  auto proc = MakeProcessor();
  // The profiles the processor's node subscribes, by their one stream.
  auto source_profiles = [this] {
    std::map<std::string, const Profile*> out;
    network_->ForEachSubscription([&out](NodeId node, const Profile& p) {
      if (node != 0) return;
      EXPECT_EQ(p.streams().size(), 1u) << p.ToString();
      EXPECT_TRUE(out.emplace(*p.streams().begin(), &p).second)
          << "two source subscriptions for " << *p.streams().begin();
    });
    return out;
  };
  int open_hits = 0, closed_hits = 0;
  ASSERT_TRUE(Submit(
                      proc.get(), "q1",
                      "SELECT itemID FROM OpenAuction WHERE start_price >= 100 "
                      "AND start_price <= 200",
                      2, [&](const std::string&, const Tuple&) { ++open_hits; })
                  .ok());
  ASSERT_TRUE(Submit(
                      proc.get(), "q2",
                      "SELECT itemID FROM ClosedAuction WHERE buyerID > 5", 3,
                      [&](const std::string&, const Tuple&) { ++closed_hits; })
                  .ok());
  auto before = source_profiles();
  ASSERT_EQ(before.size(), 2u);

  // Widening the OpenAuction group resubscribes only OpenAuction's part.
  ASSERT_TRUE(Submit(proc.get(), "q3",
                     "SELECT itemID FROM OpenAuction WHERE "
                     "start_price >= 150 AND start_price <= 400",
                     3, nullptr)
                  .ok());
  auto after = source_profiles();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_NE(after["OpenAuction"], before["OpenAuction"]);
  EXPECT_EQ(after["ClosedAuction"], before["ClosedAuction"]);

  network_->Publish(open_pub_, Open(1, 150, 0));
  network_->Publish(closed_pub_,
                    Tuple(AuctionDataset::ClosedAuctionSchema(),
                          {Value(int64_t{1}), Value(int64_t{9}),
                           Value(int64_t{1})},
                          1));
  EXPECT_EQ(open_hits, 1);
  EXPECT_EQ(closed_hits, 1);

  // Dissolving the ClosedAuction group drops only its stream's part.
  ASSERT_TRUE(proc->RemoveQuery("q2").ok());
  after = source_profiles();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after.count("OpenAuction"), 1u);
}

TEST_F(ProcessorTest, UnchangedSourcePartIsNotResubscribed) {
  auto proc = MakeProcessor(/*merging=*/false);
  auto source_profile = [this] {
    const Profile* out = nullptr;
    network_->ForEachSubscription([&out](NodeId node, const Profile& p) {
      if (node == 0) out = &p;
    });
    return out;
  };
  ASSERT_TRUE(Submit(proc.get(), "wide",
                     "SELECT itemID, start_price FROM OpenAuction "
                     "WHERE start_price >= 100 AND "
                     "start_price <= 400",
                     2, nullptr)
                  .ok());
  const Profile* wide_only = source_profile();
  ASSERT_TRUE(Submit(proc.get(), "narrow",
                     "SELECT itemID, start_price FROM OpenAuction "
                     "WHERE start_price >= 150 AND "
                     "start_price <= 200",
                     3, nullptr)
                  .ok());
  ASSERT_EQ(proc->grouping().num_groups(), 2u);
  // The narrow group's filter is covered by the wide one's, so the merged
  // OpenAuction part is unchanged by either group change.
  EXPECT_EQ(source_profile(), wide_only);
  ASSERT_TRUE(proc->RemoveQuery("narrow").ok());
  EXPECT_EQ(source_profile(), wide_only);
}

// q2 widens the group's representative from start_price >= 456.7894 to
// >= 456.7891. Both source parts print as [456.789, +inf) at ToString's 6
// significant digits, yet the part changed, so the processor resubscribes
// and 456.7892 reaches the SPE for q2.
TEST_F(ProcessorTest, SourcePartChangeBelowPrintPrecisionResubscribes) {
  auto proc = MakeProcessor();
  int hits1 = 0, hits2 = 0;
  ASSERT_TRUE(Submit(proc.get(), "q1",
                     "SELECT itemID, start_price FROM OpenAuction WHERE "
                     "start_price >= 456.7894",
                     2, [&](const std::string&, const Tuple&) { ++hits1; })
                  .ok());
  ASSERT_TRUE(Submit(proc.get(), "q2",
                     "SELECT itemID, start_price FROM OpenAuction WHERE "
                     "start_price >= 456.7891",
                     3, [&](const std::string&, const Tuple&) { ++hits2; })
                  .ok());
  ASSERT_EQ(proc->grouping().num_groups(), 1u);
  network_->Publish(open_pub_, Open(1, 456.7892, 0));  // q2
  network_->Publish(open_pub_, Open(2, 456.7895, 1));  // both
  EXPECT_EQ(hits1, 1);
  EXPECT_EQ(hits2, 2);
}

// The eval spans a processor's plans opened, as their "query" args (the
// quoted result stream of the plan's group), in order.
std::vector<std::string> EvalQueries(const Tracer& tracer) {
  std::vector<std::string> out;
  for (const Tracer::Event& e : tracer.events()) {
    if (e.category != "spe" || e.name != "eval") continue;
    for (const auto& [key, value] : e.args) {
      if (key == "query") out.push_back(value);
    }
  }
  return out;
}

std::string Quoted(const std::string& s) { return Tracer::ArgString(s); }

// Two groups read OpenAuction (a range select and an aggregate) and one
// reads ClosedAuction. Widening the select group replaces
// its plan; afterwards each source tuple enters each live plan exactly once
// and the replaced plan none.
TEST_F(ProcessorTest, EachSourceTupleEntersEachLivePlanOnce) {
  MetricsRegistry metrics;
  Tracer tracer;
  tracer.Enable();
  ProcessorOptions opts;
  opts.metrics = &metrics;
  opts.tracer = &tracer;
  Processor proc(0, &catalog_, network_.get(), opts);
  std::map<std::string, int> hits;
  auto count = [&hits](const std::string& id) {
    return [&hits, id](const std::string&, const Tuple&) { ++hits[id]; };
  };
  ASSERT_TRUE(Submit(&proc, "select",
                     "SELECT itemID, start_price FROM OpenAuction WHERE "
                     "start_price >= 100 AND start_price <= 200",
                     2, count("select"))
                  .ok());
  ASSERT_TRUE(Submit(&proc, "agg",
                     "SELECT sellerID, COUNT(*) FROM OpenAuction "
                     "[Range 1 Hour] GROUP BY sellerID",
                     3, count("agg"))
                  .ok());
  ASSERT_TRUE(Submit(&proc, "closed",
                     "SELECT itemID FROM ClosedAuction WHERE buyerID > 5", 3,
                     count("closed"))
                  .ok());
  const std::string replaced =
      proc.grouping().GroupOf("select")->ResultStreamName();
  ASSERT_TRUE(Submit(&proc, "wide",
                     "SELECT itemID, start_price FROM OpenAuction WHERE "
                     "start_price >= 150 AND start_price <= 400",
                     2, count("wide"))
                  .ok());
  ASSERT_EQ(proc.grouping().num_groups(), 3u);
  ASSERT_EQ(proc.num_installed_representatives(), 3u);
  const std::string widened =
      proc.grouping().GroupOf("wide")->ResultStreamName();
  ASSERT_EQ(proc.grouping().GroupOf("select")->ResultStreamName(), widened);
  ASSERT_NE(widened, replaced);
  const std::string agg = proc.grouping().GroupOf("agg")->ResultStreamName();
  const std::string closed =
      proc.grouping().GroupOf("closed")->ResultStreamName();

  const Counter* tuples_in = metrics.FindCounter(
      MetricsRegistry::LabeledName("spe.tuples_in", "node", "0"));
  const Counter* results_out = metrics.FindCounter(
      MetricsRegistry::LabeledName("spe.results_out", "node", "0"));
  ASSERT_NE(tuples_in, nullptr);
  ASSERT_NE(results_out, nullptr);
  EXPECT_EQ(tuples_in->value(), 0u);
  tracer.Clear();

  network_->Publish(open_pub_, Open(1, 180, 0));
  EXPECT_EQ(tuples_in->value(), 1u);
  // The widened plan was installed after the aggregate, so it is fed
  // after it.
  EXPECT_EQ(EvalQueries(tracer),
            (std::vector<std::string>{Quoted(agg), Quoted(widened)}));
  tracer.Clear();

  network_->Publish(closed_pub_,
                    Tuple(AuctionDataset::ClosedAuctionSchema(),
                          {Value(int64_t{1}), Value(int64_t{9}),
                           Value(int64_t{1})},
                          1));
  EXPECT_EQ(tuples_in->value(), 2u);
  EXPECT_EQ(EvalQueries(tracer), std::vector<std::string>{Quoted(closed)});

  // One widened result split to both members, one count, one ClosedAuction
  // result: three results left the plans.
  EXPECT_EQ(results_out->value(), 3u);
  EXPECT_EQ(hits["select"], 1);
  EXPECT_EQ(hits["wide"], 1);
  EXPECT_EQ(hits["agg"], 1);
  EXPECT_EQ(hits["closed"], 1);
}

// Removing groups unbinds only their plans: the plans left on a shared
// stream keep being fed, and a stream no plan reads any more is not
// delivered to the processor at all.
TEST_F(ProcessorTest, RemovingAGroupKeepsOtherReadersBound) {
  MetricsRegistry metrics;
  Tracer tracer;
  tracer.Enable();
  ProcessorOptions opts;
  opts.enable_merging = false;
  opts.metrics = &metrics;
  opts.tracer = &tracer;
  Processor proc(0, &catalog_, network_.get(), opts);
  std::map<std::string, int> hits;
  auto count = [&hits](const std::string& id) {
    return [&hits, id](const std::string&, const Tuple&) { ++hits[id]; };
  };
  ASSERT_TRUE(
      Submit(&proc, "q1", "SELECT itemID FROM OpenAuction", 2, count("q1"))
          .ok());
  ASSERT_TRUE(Submit(&proc, "q2",
                     "SELECT O.itemID FROM OpenAuction [Range 1 Hour] O, "
                     "ClosedAuction [Now] C WHERE O.itemID = C.itemID",
                     2, count("q2"))
                  .ok());
  ASSERT_TRUE(Submit(&proc, "q3",
                     "SELECT itemID FROM OpenAuction WHERE start_price > 100",
                     3, count("q3"))
                  .ok());
  ASSERT_TRUE(Submit(&proc, "q4",
                     "SELECT sellerID, COUNT(*) FROM OpenAuction "
                     "[Range 1 Hour] GROUP BY sellerID",
                     3, count("q4"))
                  .ok());
  ASSERT_TRUE(proc.RemoveQuery("q2").ok());
  ASSERT_TRUE(proc.RemoveQuery("q3").ok());
  EXPECT_EQ(proc.num_installed_representatives(), 2u);
  const Counter* tuples_in = metrics.FindCounter(
      MetricsRegistry::LabeledName("spe.tuples_in", "node", "0"));
  ASSERT_NE(tuples_in, nullptr);
  tracer.Clear();

  network_->Publish(open_pub_, Open(1, 150, 0));
  network_->Publish(closed_pub_,
                    Tuple(AuctionDataset::ClosedAuctionSchema(),
                          {Value(int64_t{1}), Value(int64_t{2}),
                           Value(int64_t{1})},
                          1));
  EXPECT_EQ(tuples_in->value(), 1u);  // ClosedAuction is unsubscribed
  EXPECT_EQ(EvalQueries(tracer).size(), 2u);
  EXPECT_EQ(hits["q1"], 1);
  EXPECT_EQ(hits["q4"], 1);
  EXPECT_EQ(hits.count("q2"), 0u);
  EXPECT_EQ(hits.count("q3"), 0u);
}

}  // namespace
}  // namespace cosmos
