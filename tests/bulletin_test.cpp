// Data bulletin tests: detector reports, partition/cluster queries through
// the federation's single access point, degraded answers when an instance
// is down, usage aggregation.
#include "kernel/bulletin/data_bulletin.h"

#include <gtest/gtest.h>

#include "kernel_fixture.h"
#include "test_client.h"

namespace phoenix::kernel {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::TestClient;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

class BulletinTest : public ::testing::Test {
 protected:
  BulletinTest() : h(small_cluster_spec(), fast_ft_params()) {
    // Two detector sampling rounds populate every partition's instance.
    h.run_s(3.0);
  }

  DataBulletin& db(std::uint32_t p) {
    return h.kernel.bulletin(net::PartitionId{p});
  }

  const DbQueryReplyMsg* query(TestClient& client, bool cluster_scope,
                               BulletinTable table = BulletinTable::kBoth,
                               std::uint32_t partition = 0) {
    auto q = std::make_shared<DbQueryMsg>();
    q->request_id = 1234;
    q->table = table;
    q->cluster_scope = cluster_scope;
    q->reply_to = client.address();
    client.send_any(db(partition).address(), q);
    h.run_s(2.0);
    return client.last_of_type<DbQueryReplyMsg>();
  }

  KernelHarness h;
};

TEST_F(BulletinTest, DetectorsPopulateNodeTable) {
  // Each partition instance holds one row per partition node.
  EXPECT_EQ(db(0).node_row_count(), 6u);
  EXPECT_EQ(db(1).node_row_count(), 6u);
}

TEST_F(BulletinTest, PartitionScopeReturnsOwnRowsOnly) {
  TestClient client(h.cluster, net::NodeId{2});
  const auto* reply = query(client, /*cluster_scope=*/false);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->node_rows.size(), 6u);
  EXPECT_EQ(reply->partitions_included, 1u);
  for (const auto& row : reply->node_rows) {
    EXPECT_EQ(row.partition.value, 0u);
  }
}

TEST_F(BulletinTest, ClusterScopeMergesAllPartitions) {
  TestClient client(h.cluster, net::NodeId{2});
  const auto* reply = query(client, /*cluster_scope=*/true);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->node_rows.size(), 12u);
  EXPECT_EQ(reply->partitions_included, 2u);
}

TEST_F(BulletinTest, AnyInstanceIsAnAccessPoint) {
  // Same cluster-wide answer when asking partition 1's instance.
  TestClient client(h.cluster, net::NodeId{8});
  const auto* reply = query(client, true, BulletinTable::kBoth, 1);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->node_rows.size(), 12u);
}

TEST_F(BulletinTest, DeadInstanceDegradesToRemainingPartitions) {
  h.kernel.bulletin(net::PartitionId{1}).kill();
  TestClient client(h.cluster, net::NodeId{2});
  const auto* reply = query(client, true);
  ASSERT_NE(reply, nullptr);
  // Only partition 0's rows: "only the state of one partition can't be
  // obtained" (paper §4.4).
  EXPECT_EQ(reply->node_rows.size(), 6u);
  EXPECT_EQ(reply->partitions_included, 1u);
}

// A retry that reaches the access point while the original's fan-out is
// pending is dropped, and the original's reply answers both; a copy sent
// after that reply runs again.
TEST_F(BulletinTest, RetryDuringFanOutIsDroppedLaterCopyRunsAgain) {
  h.kernel.bulletin(net::PartitionId{1}).kill();  // the fan-out waits 500 ms
  TestClient client(h.cluster, net::NodeId{2});
  auto q = std::make_shared<DbQueryMsg>();
  q->request_id = 77;
  q->reply_to = client.address();
  client.send_any(db(0).address(), q);
  h.run_s(0.2);
  client.send_any(db(0).address(), q);
  h.run_s(1.0);
  EXPECT_EQ(client.of_type<DbQueryReplyMsg>().size(), 1u);
  EXPECT_EQ(db(0).duplicate_queries(), 1u);

  client.send_any(db(0).address(), q);
  h.run_s(1.0);
  EXPECT_EQ(client.of_type<DbQueryReplyMsg>().size(), 2u);
  EXPECT_EQ(db(0).duplicate_queries(), 1u);
}

TEST_F(BulletinTest, AppTableCarriesUserProcesses) {
  // Launch a user process on a compute node; the app detector exports it.
  auto& ppm = h.kernel.ppm(net::NodeId{3});
  ppm.spawn_local(ProcessSpec{"userjob", "alice", 1.0, 60 * sim::kSecond, 0});
  h.run_s(3.0);

  TestClient client(h.cluster, net::NodeId{2});
  const auto* reply = query(client, true, BulletinTable::kApps);
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->node_rows.empty());
  bool found = false;
  for (const auto& app : reply->app_rows) {
    if (app.name() == "userjob" && app.owner() == "alice") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(BulletinTest, KernelDaemonsExcludedFromAppTable) {
  TestClient client(h.cluster, net::NodeId{2});
  const auto* reply = query(client, true, BulletinTable::kApps);
  ASSERT_NE(reply, nullptr);
  for (const auto& app : reply->app_rows) {
    EXPECT_NE(app.owner(), "kernel") << app.name();
  }
}

TEST_F(BulletinTest, NodesTableOnlyOmitsApps) {
  TestClient client(h.cluster, net::NodeId{2});
  const auto* reply = query(client, true, BulletinTable::kNodes);
  ASSERT_NE(reply, nullptr);
  EXPECT_FALSE(reply->node_rows.empty());
  EXPECT_TRUE(reply->app_rows.empty());
}

TEST_F(BulletinTest, ReportOverwritesPerNode) {
  NodeRecord rec;
  rec.node = net::NodeId{2};
  rec.partition = net::PartitionId{0};
  rec.usage.cpu_pct = 99.0;
  rec.updated_at = h.cluster.now();
  db(0).report_local(rec, {});
  db(0).report_local(rec, {});
  // Still one row per node.
  std::size_t count = 0;
  for (const auto& row : db(0).node_rows()) {
    if (row.node == net::NodeId{2}) ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(SummarizeTest, Aggregates) {
  std::vector<NodeRecord> nodes(4);
  for (std::size_t i = 0; i < 4; ++i) {
    nodes[i].usage.cpu_pct = 10.0 * static_cast<double>(i + 1);  // 10..40
    nodes[i].usage.mem_pct = 50.0;
    nodes[i].usage.swap_pct = 1.0;
    nodes[i].alive = i != 3;
  }
  std::vector<AppRecord> apps(3);
  const UsageSummary s = summarize(nodes, apps);
  EXPECT_EQ(s.node_count, 4u);
  EXPECT_EQ(s.alive_count, 3u);
  EXPECT_DOUBLE_EQ(s.avg_cpu_pct, 25.0);
  EXPECT_DOUBLE_EQ(s.avg_mem_pct, 50.0);
  EXPECT_DOUBLE_EQ(s.avg_swap_pct, 1.0);
  EXPECT_EQ(s.app_count, 3u);
}

TEST(SummarizeTest, EmptyInput) {
  const UsageSummary s = summarize({}, {});
  EXPECT_EQ(s.node_count, 0u);
  EXPECT_DOUBLE_EQ(s.avg_cpu_pct, 0.0);
}

}  // namespace
}  // namespace phoenix::kernel
