// Tests for PWS job dependencies (afterok) and bulletin aggregate pushdown.
#include <gtest/gtest.h>

#include "gridview/gridview.h"
#include "kernel_fixture.h"
#include "pws/pws.h"
#include "test_client.h"

namespace phoenix {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::TestClient;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

class JobDepsTest : public ::testing::Test {
 protected:
  JobDepsTest() : h(small_cluster_spec(), fast_ft_params()) {
    pws::PwsConfig config;
    pws::PoolConfig pool;
    pool.name = "batch";
    for (std::uint32_t p = 0; p < 2; ++p) {
      for (net::NodeId n : h.cluster.compute_nodes(net::PartitionId{p})) {
        pool.nodes.push_back(n);
      }
    }
    config.pools = {pool};
    pws = std::make_unique<pws::PwsSystem>(h.kernel, config);
    h.run_s(1.0);
  }

  pws::JobId submit(unsigned nodes, double seconds, pws::JobId after_ok = 0,
                    double walltime_s = 0) {
    pws::SubmitRequest r;
    r.user = "u";
    r.pool = "batch";
    r.nodes = nodes;
    r.duration = sim::from_seconds(seconds);
    r.after_ok = after_ok;
    r.walltime_limit = sim::from_seconds(walltime_s);
    return pws->submit(r);
  }

  KernelHarness h;
  std::unique_ptr<pws::PwsSystem> pws;
};

TEST_F(JobDepsTest, DependentWaitsForCompletion) {
  const auto first = submit(2, 5.0);
  const auto second = submit(2, 5.0, first);
  h.run_s(3.0);
  EXPECT_EQ(pws->scheduler().job(first)->state, pws::JobState::kRunning);
  EXPECT_EQ(pws->scheduler().job(second)->state, pws::JobState::kQueued)
      << "plenty of free nodes, but the dependency gates it";
  h.run_s(5.0);
  EXPECT_EQ(pws->scheduler().job(first)->state, pws::JobState::kCompleted);
  EXPECT_EQ(pws->scheduler().job(second)->state, pws::JobState::kRunning);
  h.run_s(6.0);
  EXPECT_EQ(pws->scheduler().job(second)->state, pws::JobState::kCompleted);
}

TEST_F(JobDepsTest, DependentSkippedWithoutBlockingOthers) {
  const auto long_dep = submit(1, 60.0);
  const auto gated = submit(1, 5.0, long_dep);
  const auto free_job = submit(1, 5.0);
  h.run_s(3.0);
  EXPECT_EQ(pws->scheduler().job(gated)->state, pws::JobState::kQueued);
  EXPECT_EQ(pws->scheduler().job(free_job)->state, pws::JobState::kRunning)
      << "a gated job must not block later runnable work";
}

TEST_F(JobDepsTest, FailedDependencyCancelsDependent) {
  const auto doomed = submit(1, 600.0, 0, /*walltime_s=*/3.0);  // will time out
  const auto gated = submit(1, 5.0, doomed);
  h.run_s(8.0);
  EXPECT_EQ(pws->scheduler().job(doomed)->state, pws::JobState::kTimedOut);
  EXPECT_EQ(pws->scheduler().job(gated)->state, pws::JobState::kCancelled);
}

TEST_F(JobDepsTest, UnknownDependencyCancels) {
  const auto gated = submit(1, 5.0, /*after_ok=*/424242);
  h.run_s(3.0);
  EXPECT_EQ(pws->scheduler().job(gated)->state, pws::JobState::kCancelled);
}

TEST_F(JobDepsTest, ChainOfDependencies) {
  const auto a = submit(1, 3.0);
  const auto b = submit(1, 3.0, a);
  const auto c = submit(1, 3.0, b);
  h.run_s(16.0);
  EXPECT_EQ(pws->scheduler().job(c)->state, pws::JobState::kCompleted);
  // Strict ordering of start times.
  EXPECT_LT(pws->scheduler().job(a)->started_at, pws->scheduler().job(b)->started_at);
  EXPECT_LT(pws->scheduler().job(b)->started_at, pws->scheduler().job(c)->started_at);
}

class AggregateQueryTest : public ::testing::Test {
 protected:
  AggregateQueryTest() : h(small_cluster_spec(), fast_ft_params()) {
    h.run_s(3.0);  // detectors fill the bulletin
  }
  KernelHarness h;
};

TEST_F(AggregateQueryTest, AggregateMatchesRowBasedSummary) {
  TestClient client(h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[0]);

  auto rows_query = std::make_shared<kernel::DbQueryMsg>();
  rows_query->request_id = 1;
  rows_query->cluster_scope = true;
  rows_query->reply_to = client.address();
  client.send_any(h.kernel.bulletin(net::PartitionId{0}).address(), rows_query);
  h.run_s(1.0);
  const auto* rows = client.last_of_type<kernel::DbQueryReplyMsg>();
  ASSERT_NE(rows, nullptr);
  const auto expected = kernel::summarize(rows->node_rows, rows->app_rows);

  auto agg_query = std::make_shared<kernel::DbQueryMsg>();
  agg_query->request_id = 2;
  agg_query->cluster_scope = true;
  agg_query->aggregate_only = true;
  agg_query->reply_to = client.address();
  client.send_any(h.kernel.bulletin(net::PartitionId{0}).address(), agg_query);
  h.run_s(1.0);
  const auto* agg = client.last_of_type<kernel::DbQueryReplyMsg>();
  ASSERT_NE(agg, nullptr);
  ASSERT_TRUE(agg->aggregated);
  EXPECT_TRUE(agg->node_rows.empty());

  EXPECT_EQ(agg->summary.node_count, expected.node_count);
  EXPECT_EQ(agg->summary.alive_count, expected.alive_count);
  EXPECT_NEAR(agg->summary.avg_cpu_pct, expected.avg_cpu_pct, 1e-9);
  EXPECT_NEAR(agg->summary.avg_mem_pct, expected.avg_mem_pct, 1e-9);
}

TEST_F(AggregateQueryTest, AggregateRepliesAreConstantSize) {
  TestClient client(h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[0]);
  h.cluster.fabric().reset_stats();
  auto agg = std::make_shared<kernel::DbQueryMsg>();
  agg->request_id = 3;
  agg->cluster_scope = true;
  agg->aggregate_only = true;
  agg->reply_to = client.address();
  client.send_any(h.kernel.bulletin(net::PartitionId{0}).address(), agg);
  h.run_s(1.0);
  const auto agg_bytes =
      h.cluster.fabric().total_stats().bytes_by_type.at("db.query_reply");

  h.cluster.fabric().reset_stats();
  auto rows = std::make_shared<kernel::DbQueryMsg>();
  rows->request_id = 4;
  rows->cluster_scope = true;
  rows->reply_to = client.address();
  client.send_any(h.kernel.bulletin(net::PartitionId{0}).address(), rows);
  h.run_s(1.0);
  const auto row_bytes =
      h.cluster.fabric().total_stats().bytes_by_type.at("db.query_reply");
  EXPECT_LT(agg_bytes, row_bytes / 2);
}

TEST_F(AggregateQueryTest, GridViewAggregateMode) {
  gridview::GridView view(h.cluster, h.cluster.compute_nodes(net::PartitionId{1})[0],
                          h.kernel, 2 * sim::kSecond);
  view.set_aggregate_mode(true);
  view.start();
  h.run_s(5.0);
  EXPECT_GT(view.refreshes_completed(), 0u);
  EXPECT_EQ(view.last_summary().node_count, h.cluster.node_count());
  EXPECT_TRUE(view.last_nodes().empty());  // only summaries traveled
  EXPECT_EQ(view.last_partitions_included(), 2u);
}

}  // namespace
}  // namespace phoenix
