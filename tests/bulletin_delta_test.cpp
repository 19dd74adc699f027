// Delta-reporting protocol tests (DESIGN.md §8): the bulletin state built
// from the detectors' delta stream must be byte-for-byte the state built
// from full every-sample snapshots, under randomized app churn and across
// detector restarts; broken sequence chains must drop the delta and heal at
// the next resync.
#include <algorithm>
#include <gtest/gtest.h>

#include "kernel/bulletin/data_bulletin.h"
#include "kernel_fixture.h"
#include "test_client.h"
#include "workload/resource_model.h"

namespace phoenix::kernel {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::TestClient;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

kernel::FtParams snapshot_only_params() {
  auto p = fast_ft_params();
  p.detector_delta_reports = false;
  return p;
}

bool node_less(const NodeRecord& a, const NodeRecord& b) {
  return a.node.value < b.node.value;
}
bool app_less(const AppRecord& a, const AppRecord& b) {
  return a.node.value != b.node.value ? a.node.value < b.node.value
                                      : a.pid < b.pid;
}

/// Sorted-row comparison of one partition's tables across two harnesses
/// (snapshot rebuilding and delta maintenance produce different row ORDER,
/// but every field of every row must match).
void expect_tables_equal(DataBulletin& delta_db, DataBulletin& full_db) {
  auto dn = delta_db.node_rows();
  auto fn = full_db.node_rows();
  std::sort(dn.begin(), dn.end(), node_less);
  std::sort(fn.begin(), fn.end(), node_less);
  EXPECT_EQ(dn, fn);

  auto da = delta_db.app_rows();
  auto fa = full_db.app_rows();
  std::sort(da.begin(), da.end(), app_less);
  std::sort(fa.begin(), fa.end(), app_less);
  EXPECT_EQ(da, fa);
}

/// Two identically-seeded kernels, one on the delta protocol and one
/// shipping full snapshots every sample. Both simulations are in RNG
/// lockstep (the protocol choice draws no randomness), so at any instant
/// their bulletins must hold identical state.
struct TwinHarness {
  TwinHarness()
      : delta_h(small_cluster_spec(), fast_ft_params()),
        full_h(small_cluster_spec(), snapshot_only_params()),
        delta_model(delta_h.cluster, churn_params()),
        full_model(full_h.cluster, churn_params()) {
    delta_model.start();
    full_model.start();
  }

  static workload::ResourceModelParams churn_params() {
    workload::ResourceModelParams p;
    p.update_interval = 1 * sim::kSecond;
    p.churn_apps_per_node = 3;
    p.churn_exit_probability = 0.25;  // aggressive churn: many starts/exits
    return p;
  }

  void run_both_s(double seconds) {
    delta_h.run_s(seconds);
    full_h.run_s(seconds);
  }

  void expect_equal_everywhere() {
    for (std::uint32_t p = 0; p < 2; ++p) {
      SCOPED_TRACE("partition " + std::to_string(p));
      expect_tables_equal(delta_h.kernel.bulletin(net::PartitionId{p}),
                          full_h.kernel.bulletin(net::PartitionId{p}));
    }
  }

  KernelHarness delta_h;
  KernelHarness full_h;
  workload::ResourceModel delta_model;
  workload::ResourceModel full_model;
};

TEST(BulletinDeltaTest, DeltaStreamMatchesFullSnapshotsUnderChurn) {
  TwinHarness twins;
  // 40 s at a 1 s sampling interval: ~40 samples/node = several full
  // resync cycles (every 12th sample) with heavy churn in between.
  twins.run_both_s(40.0);
  twins.expect_equal_everywhere();

  // The delta harness really used the delta path, losslessly.
  const auto& det = twins.delta_h.kernel.detector(net::NodeId{3});
  EXPECT_GT(det.delta_reports_sent(), det.full_reports_sent());
  for (std::uint32_t p = 0; p < 2; ++p) {
    EXPECT_EQ(twins.delta_h.kernel.bulletin(net::PartitionId{p}).deltas_dropped(), 0u);
  }
  // And the snapshot harness never produced a delta.
  EXPECT_EQ(twins.full_h.kernel.detector(net::NodeId{3}).delta_reports_sent(), 0u);
}

TEST(BulletinDeltaTest, EquivalenceHoldsAcrossDetectorRestart) {
  TwinHarness twins;
  twins.run_both_s(10.0);

  // Bounce the same compute node's detector in both worlds. On restart the
  // delta-protocol detector must re-anchor with a full snapshot rather than
  // continuing a chain the bulletin may have diverged from.
  const net::NodeId victim{4};
  twins.delta_h.kernel.detector(victim).stop();
  twins.full_h.kernel.detector(victim).stop();
  twins.run_both_s(5.0);
  twins.delta_h.kernel.detector(victim).start();
  twins.full_h.kernel.detector(victim).start();

  twins.run_both_s(20.0);
  twins.expect_equal_everywhere();
  for (std::uint32_t p = 0; p < 2; ++p) {
    EXPECT_EQ(twins.delta_h.kernel.bulletin(net::PartitionId{p}).deltas_dropped(), 0u);
  }
}

TEST(BulletinDeltaTest, BrokenChainDropsDeltaUntilResync) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  auto& db = h.kernel.bulletin(net::PartitionId{0});

  NodeRecord rec;
  rec.node = net::NodeId{99};
  rec.partition = net::PartitionId{0};
  rec.usage.cpu_pct = 10.0;
  AppRecord app{.node = rec.node,
                .pid = 7,
                .name_id = net::intern_symbol("job-a"),
                .owner_id = net::intern_symbol("alice")};
  db.report_local(rec, {app}, /*seq=*/5);

  // Stale base sequence: rejected, table untouched.
  DbDeltaMsg stale;
  stale.node = rec.node;
  stale.prev_seq = 3;
  stale.seq = 4;
  stale.has_usage = true;
  stale.usage.cpu_pct = 99.0;
  EXPECT_FALSE(db.apply_delta(stale));
  EXPECT_EQ(db.deltas_dropped(), 1u);
  EXPECT_DOUBLE_EQ(db.node_rows()[0].usage.cpu_pct, 10.0);

  // Unknown node: also a drop.
  DbDeltaMsg unknown;
  unknown.node = net::NodeId{12345};
  unknown.prev_seq = 0;
  unknown.seq = 1;
  EXPECT_FALSE(db.apply_delta(unknown));
  EXPECT_EQ(db.deltas_dropped(), 2u);

  // Chained delta: applied — gauges move, one app exits, one starts.
  DbDeltaMsg good;
  good.node = rec.node;
  good.prev_seq = 5;
  good.seq = 6;
  good.has_usage = true;
  good.usage.cpu_pct = 55.0;
  good.sampled_at = 77;
  good.exited.push_back(7);
  good.started.push_back(AppRecord{.node = rec.node,
                                   .pid = 8,
                                   .name_id = net::intern_symbol("job-b"),
                                   .owner_id = net::intern_symbol("bob")});
  EXPECT_TRUE(db.apply_delta(good));
  const auto nodes = db.node_rows();
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_DOUBLE_EQ(nodes[0].usage.cpu_pct, 55.0);
  EXPECT_EQ(nodes[0].updated_at, 77);
  const auto apps = db.app_rows();
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_EQ(apps[0].pid, 8u);
  EXPECT_EQ(apps[0].owner(), "bob");
  EXPECT_EQ(db.app_row_count(), 1u);

  // A later snapshot resets the chain to any sequence.
  db.report_local(rec, {}, /*seq=*/40);
  DbDeltaMsg resynced;
  resynced.node = rec.node;
  resynced.prev_seq = 40;
  resynced.seq = 41;
  EXPECT_TRUE(db.apply_delta(resynced));
}

TEST(BulletinDeltaTest, EvictionDropsAppRowsWithTheNode) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  h.run_s(3.0);
  auto& db = h.kernel.bulletin(net::PartitionId{0});
  db.set_staleness_horizon(3 * sim::kSecond);

  const net::NodeId victim = h.cluster.compute_nodes(net::PartitionId{0})[0];
  h.kernel.ppm(victim).spawn_local(
      ProcessSpec{"doomed", "alice", 1.0, 600 * sim::kSecond, 0});
  h.run_s(2.0);
  ASSERT_GE(db.app_row_count(), 1u);

  h.injector.crash_node(victim);
  h.run_s(8.0);  // past 2x horizon: node row evicted, app rows with it
  for (const auto& row : db.node_rows()) EXPECT_NE(row.node, victim);
  for (const auto& app : db.app_rows()) EXPECT_NE(app.node, victim);
  EXPECT_EQ(db.app_row_count(), db.app_rows().size());
}

TEST(BulletinDeltaTest, ClusterQueryWithDeadPeerAnswersWithinTimeout) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  h.run_s(3.0);
  auto& db = h.kernel.bulletin(net::PartitionId{0});
  const sim::SimTime timeout = 200 * sim::kMillisecond;
  db.set_query_timeout(timeout);
  h.kernel.bulletin(net::PartitionId{1}).kill();

  TestClient client(h.cluster, net::NodeId{2});
  auto q = std::make_shared<DbQueryMsg>();
  q->request_id = 9;
  q->cluster_scope = true;
  q->reply_to = client.address();
  client.send_any(db.address(), q);

  const sim::SimTime sent_at = h.cluster.now();
  while (client.last_of_type<DbQueryReplyMsg>() == nullptr) {
    ASSERT_TRUE(h.cluster.engine().step()) << "simulation ran dry, no reply";
  }
  const auto* reply = client.last_of_type<DbQueryReplyMsg>();
  // The dead peer never answers; the access point must reply with the
  // timeout, not hang on the missing partition.
  EXPECT_LE(h.cluster.now() - sent_at, timeout + 50 * sim::kMillisecond);
  EXPECT_EQ(reply->partitions_included, 1u);
  EXPECT_EQ(reply->node_rows.size(), 6u);
}

}  // namespace
}  // namespace phoenix::kernel
