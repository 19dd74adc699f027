// Parameter-sweep property tests over the FtParams knobs: diagnosis time
// must equal its protocol formula, network-miss tolerance must scale, and
// the bulletin federation must stay complete at any partition count.
#include <gtest/gtest.h>

#include "kernel_fixture.h"
#include "test_client.h"

namespace phoenix::kernel {
namespace {

using phoenix::testing::KernelHarness;

// --- node-diagnosis time = attempts x timeout --------------------------------

class ProbeSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ProbeSweepTest, NodeDiagnosisMatchesProbeBudget) {
  const int attempts = GetParam();
  cluster::ClusterSpec spec;
  spec.partitions = 2;
  spec.computes_per_partition = 3;
  spec.backups_per_partition = 1;
  FtParams params;
  params.heartbeat_interval = 2 * sim::kSecond;
  params.node_probe_attempts = attempts;
  params.node_probe_timeout = 400 * sim::kMillisecond;
  KernelHarness h(spec, params);
  h.run_s(5.0);
  h.kernel.fault_log().clear();

  h.injector.crash_node(h.cluster.compute_nodes(net::PartitionId{0})[0]);
  h.run_s(20.0);

  const auto record = h.kernel.fault_log().last("WD", FaultKind::kNodeFailure);
  ASSERT_TRUE(record.has_value());
  const double diagnose = sim::to_seconds(record->diagnosed_at - record->detected_at);
  EXPECT_NEAR(diagnose, attempts * 0.4, 0.05) << "attempts=" << attempts;
}

INSTANTIATE_TEST_SUITE_P(Attempts, ProbeSweepTest, ::testing::Values(1, 2, 3, 5));

// --- network_miss_rounds scales single-NIC detection ---------------------------

class MissRoundsTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(MissRoundsTest, NetworkDetectionScalesWithMissRounds) {
  const unsigned rounds = GetParam();
  cluster::ClusterSpec spec;
  spec.partitions = 2;
  spec.computes_per_partition = 3;
  spec.backups_per_partition = 1;
  FtParams params;
  params.heartbeat_interval = 2 * sim::kSecond;
  params.network_miss_rounds = rounds;
  KernelHarness h(spec, params);
  h.run_s(5.0);
  h.kernel.fault_log().clear();

  const net::NodeId victim = h.cluster.compute_nodes(net::PartitionId{0})[1];
  h.run_until_after_heartbeat(victim);
  const sim::SimTime injected =
      h.injector.cut_interface(victim, net::NetworkId{0});
  h.run_s(5.0 * rounds + 10.0);

  const auto record = h.kernel.fault_log().last("WD", FaultKind::kNetworkFailure);
  ASSERT_TRUE(record.has_value());
  const double detect = sim::to_seconds(record->detected_at - injected);
  // Injection right after a heartbeat: detection needs `rounds` more missed
  // rounds beyond the one already sent.
  EXPECT_GE(detect, rounds * 2.0);
  EXPECT_LE(detect, (rounds + 1) * 2.0 + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Rounds, MissRoundsTest, ::testing::Values(1u, 2u, 4u));

// --- federation completeness at any partition count ------------------------------

class FederationSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FederationSweepTest, BulletinSeesEveryPartitionFromAnyInstance) {
  const std::size_t partitions = GetParam();
  cluster::ClusterSpec spec;
  spec.partitions = partitions;
  spec.computes_per_partition = 2;
  spec.backups_per_partition = 1;
  KernelHarness h(spec, phoenix::testing::fast_ft_params());
  h.run_s(3.0);

  // Every instance's merged cluster view covers every node.
  for (std::size_t p = 0; p < partitions; ++p) {
    phoenix::testing::TestClient client(
        h.cluster, h.cluster.compute_nodes(net::PartitionId{
                       static_cast<std::uint32_t>(p)})[0],
        net::PortId{static_cast<std::uint16_t>(200 + p)});
    auto query = std::make_shared<DbQueryMsg>();
    query->request_id = 10 + p;
    query->cluster_scope = true;
    query->table = BulletinTable::kNodes;
    query->reply_to = client.address();
    client.send_any(
        h.kernel.bulletin(net::PartitionId{static_cast<std::uint32_t>(p)}).address(),
        query);
    h.run_s(2.0);
    const auto* reply = client.last_of_type<DbQueryReplyMsg>();
    ASSERT_NE(reply, nullptr) << "partition " << p;
    EXPECT_EQ(reply->node_rows.size(), h.cluster.node_count()) << "partition " << p;
    EXPECT_EQ(reply->partitions_included, partitions) << "partition " << p;
  }
}

TEST_P(FederationSweepTest, EventRegistryReplicatesEverywhere) {
  const std::size_t partitions = GetParam();
  cluster::ClusterSpec spec;
  spec.partitions = partitions;
  spec.computes_per_partition = 2;
  spec.backups_per_partition = 1;
  KernelHarness h(spec, phoenix::testing::fast_ft_params());
  h.run_s(1.0);

  phoenix::testing::TestClient consumer(
      h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[0]);
  Subscription sub;
  sub.consumer = consumer.address();
  sub.types = {"sweep.event"};
  h.kernel.event_service(net::PartitionId{0}).subscribe_local(sub);
  h.run_s(1.0);

  // Publish once at EVERY instance; each publish reaches the consumer once.
  for (std::size_t p = 0; p < partitions; ++p) {
    Event e;
    e.type = "sweep.event";
    h.kernel.event_service(net::PartitionId{static_cast<std::uint32_t>(p)})
        .publish_local(e);
  }
  h.run_s(1.0);
  EXPECT_EQ(consumer.of_type<EsNotifyMsg>().size(), partitions);
}

INSTANTIATE_TEST_SUITE_P(Partitions, FederationSweepTest,
                         ::testing::Values(1u, 2u, 3u, 6u));

}  // namespace
}  // namespace phoenix::kernel
