// Bulletin query-filter pushdown and staleness-sweep tests.
#include <gtest/gtest.h>

#include "kernel/bulletin/data_bulletin.h"
#include "kernel_fixture.h"
#include "test_client.h"

namespace phoenix::kernel {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::TestClient;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

class BulletinFilterTest : public ::testing::Test {
 protected:
  BulletinFilterTest() : h(small_cluster_spec(), fast_ft_params()) {
    h.run_s(3.0);  // detectors fill both partitions
  }

  const DbQueryReplyMsg* query(TestClient& client, BulletinFilter filter,
                               BulletinTable table = BulletinTable::kBoth) {
    auto q = std::make_shared<DbQueryMsg>();
    q->request_id = 77;
    q->table = table;
    q->cluster_scope = true;
    q->filter = std::move(filter);
    q->reply_to = client.address();
    client.send_any(h.kernel.bulletin(net::PartitionId{0}).address(), q);
    h.run_s(2.0);
    return client.last_of_type<DbQueryReplyMsg>();
  }

  KernelHarness h;
};

TEST_F(BulletinFilterTest, PartitionFilterRestrictsRows) {
  TestClient client(h.cluster, net::NodeId{2});
  BulletinFilter filter;
  filter.has_partition = true;
  filter.partition = net::PartitionId{1};
  const auto* reply = query(client, filter, BulletinTable::kNodes);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->node_rows.size(), 6u);
  for (const auto& row : reply->node_rows) {
    EXPECT_EQ(row.partition.value, 1u);
  }
}

TEST_F(BulletinFilterTest, CpuThresholdFilter) {
  // Pin two nodes hot, the rest cold.
  for (const auto& node : h.cluster.nodes()) {
    h.cluster.node(node.id()).resources().cpu_pct =
        (node.id().value == 3 || node.id().value == 9) ? 95.0 : 5.0;
  }
  for (const auto& node : h.cluster.nodes()) {
    h.kernel.detector(node.id()).sample_now();
  }
  h.run_s(1.0);

  TestClient client(h.cluster, net::NodeId{2});
  BulletinFilter filter;
  filter.min_cpu_pct = 80.0;
  const auto* reply = query(client, filter, BulletinTable::kNodes);
  ASSERT_NE(reply, nullptr);
  ASSERT_EQ(reply->node_rows.size(), 2u);
  for (const auto& row : reply->node_rows) {
    EXPECT_GE(row.usage.cpu_pct, 80.0);
  }
}

TEST_F(BulletinFilterTest, OwnerFilterOnApps) {
  h.kernel.ppm(net::NodeId{3}).spawn_local(
      ProcessSpec{"a-job", "alice", 1.0, 60 * sim::kSecond, 0});
  h.kernel.ppm(net::NodeId{4}).spawn_local(
      ProcessSpec{"b-job", "bob", 1.0, 60 * sim::kSecond, 0});
  h.run_s(2.0);

  TestClient client(h.cluster, net::NodeId{2});
  BulletinFilter filter;
  filter.set_owner("alice");
  const auto* reply = query(client, filter, BulletinTable::kApps);
  ASSERT_NE(reply, nullptr);
  ASSERT_EQ(reply->app_rows.size(), 1u);
  EXPECT_EQ(reply->app_rows[0].owner(), "alice");
  EXPECT_EQ(reply->app_rows[0].name(), "a-job");
}

TEST_F(BulletinFilterTest, FilterPushdownReducesReplyBytes) {
  // A filtered cluster query must move fewer bytes than an unfiltered one.
  TestClient client(h.cluster, net::NodeId{2});
  h.cluster.fabric().reset_stats();
  query(client, BulletinFilter{});  // unfiltered
  const auto unfiltered =
      h.cluster.fabric().total_stats().bytes_by_type.at("db.query_reply");

  h.cluster.fabric().reset_stats();
  BulletinFilter narrow;
  narrow.min_cpu_pct = 1000.0;  // matches nothing
  query(client, narrow, BulletinTable::kNodes);
  const auto filtered =
      h.cluster.fabric().total_stats().bytes_by_type.at("db.query_reply");
  EXPECT_LT(filtered, unfiltered / 2);
}

TEST_F(BulletinFilterTest, StaleRowsMarkedDeadThenEvicted) {
  auto& db = h.kernel.bulletin(net::PartitionId{0});
  db.set_staleness_horizon(3 * sim::kSecond);
  const net::NodeId victim = h.cluster.compute_nodes(net::PartitionId{0})[0];
  h.injector.crash_node(victim);  // its detector stops reporting

  h.run_s(4.5);  // > horizon: marked not-alive
  bool found = false;
  for (const auto& row : db.node_rows()) {
    if (row.node == victim) {
      found = true;
      EXPECT_FALSE(row.alive);
    }
  }
  EXPECT_TRUE(found);

  h.run_s(4.0);  // > 2x horizon: evicted
  for (const auto& row : db.node_rows()) {
    EXPECT_NE(row.node, victim);
  }
}

TEST_F(BulletinFilterTest, LiveRowsSurviveSweep) {
  auto& db = h.kernel.bulletin(net::PartitionId{0});
  db.set_staleness_horizon(3 * sim::kSecond);
  h.run_s(20.0);
  EXPECT_EQ(db.node_row_count(), 6u);  // detectors keep everything fresh
  for (const auto& row : db.node_rows()) {
    EXPECT_TRUE(row.alive);
  }
}

TEST_F(BulletinFilterTest, AliveOnlyFilter) {
  auto& db = h.kernel.bulletin(net::PartitionId{0});
  db.set_staleness_horizon(3 * sim::kSecond);
  const net::NodeId victim = h.cluster.compute_nodes(net::PartitionId{0})[1];
  h.injector.crash_node(victim);
  h.run_s(4.5);

  TestClient client(h.cluster, net::NodeId{2});
  BulletinFilter filter;
  filter.alive_only = true;
  filter.has_partition = true;
  filter.partition = net::PartitionId{0};
  const auto* reply = query(client, filter, BulletinTable::kNodes);
  ASSERT_NE(reply, nullptr);
  for (const auto& row : reply->node_rows) {
    EXPECT_NE(row.node, victim);
    EXPECT_TRUE(row.alive);
  }
}

}  // namespace
}  // namespace phoenix::kernel
