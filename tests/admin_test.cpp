// Admin console tests: status tables, fault analysis, parallel commands,
// drain/undrain, lossy-fabric robustness of the kernel it manages.
#include "admin/admin_console.h"

#include <gtest/gtest.h>

#include "kernel/ppm/process_manager.h"
#include "kernel_fixture.h"

namespace phoenix::admin {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

class AdminTest : public ::testing::Test {
 protected:
  AdminTest()
      : h(small_cluster_spec(), fast_ft_params()),
        console(h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[0],
                h.kernel) {
    h.run_s(3.0);
  }

  KernelHarness h;
  AdminConsole console;
};

TEST_F(AdminTest, NodeStatusesCoverWholeCluster) {
  const auto statuses = console.node_statuses();
  ASSERT_EQ(statuses.size(), h.cluster.node_count());
  std::size_t servers = 0;
  for (const auto& s : statuses) {
    EXPECT_TRUE(s.alive);
    EXPECT_FALSE(s.drained);
    EXPECT_GT(s.running_processes, 0u);  // kernel daemons at least
    if (s.role == cluster::NodeRole::kServer) ++servers;
  }
  EXPECT_EQ(servers, 2u);
}

TEST_F(AdminTest, ServicePlacementsTrackMigration) {
  auto placements = console.service_placements();
  EXPECT_EQ(placements.size(), 4u * 2u);  // 4 kinds x 2 partitions
  for (const auto& p : placements) {
    EXPECT_TRUE(p.alive);
    EXPECT_EQ(p.node, h.cluster.server_node(p.partition));
  }

  // Crash partition 1's server; placements must follow the migration.
  h.injector.crash_node(h.cluster.server_node(net::PartitionId{1}));
  h.run_s(20.0);
  placements = console.service_placements();
  for (const auto& p : placements) {
    if (p.partition == net::PartitionId{1}) {
      EXPECT_EQ(p.node, h.cluster.backup_nodes(net::PartitionId{1})[0]);
      EXPECT_TRUE(p.alive);
    }
  }
}

TEST_F(AdminTest, FaultAnalysisAggregates) {
  h.injector.kill_daemon(h.kernel.watch_daemon(h.cluster.compute_nodes(net::PartitionId{0})[1]));
  h.run_s(10.0);
  h.injector.kill_daemon(h.kernel.event_service(net::PartitionId{1}));
  h.run_s(10.0);

  const FaultAnalysis analysis = console.analyze_faults();
  EXPECT_EQ(analysis.total_faults, 2u);
  EXPECT_EQ(analysis.unrecovered, 0u);
  ASSERT_TRUE(analysis.by_component.contains("WD"));
  ASSERT_TRUE(analysis.by_component.contains("ES"));
  EXPECT_GT(analysis.by_component.at("WD").mean_ttr_s, 0.0);
  EXPECT_LT(analysis.availability, 1.0);
  EXPECT_GT(analysis.availability, 0.5);
}

TEST_F(AdminTest, AvailabilityIsOneWithoutFaults) {
  const FaultAnalysis analysis = console.analyze_faults();
  EXPECT_EQ(analysis.total_faults, 0u);
  EXPECT_DOUBLE_EQ(analysis.availability, 1.0);
}

TEST_F(AdminTest, ParallelCommandAcrossCluster) {
  std::vector<net::NodeId> nodes;
  for (const auto& node : h.cluster.nodes()) nodes.push_back(node.id());
  const CommandResult result = console.run_command("apt-upgrade", nodes, 4);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.succeeded, h.cluster.node_count());
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.elapsed, 0u);
}

TEST_F(AdminTest, ParallelCommandOnNoNodesReturnsAtOnce) {
  const sim::SimTime before = h.cluster.now();
  const CommandResult result = console.run_command("uptime", {}, 4);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.succeeded, 0u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(h.cluster.now(), before);
}

TEST_F(AdminTest, ParallelCommandReportsDeadNodes) {
  h.injector.crash_node(h.cluster.compute_nodes(net::PartitionId{1})[2]);
  std::vector<net::NodeId> nodes;
  for (const auto& node : h.cluster.nodes()) nodes.push_back(node.id());
  const CommandResult result = console.run_command("uptime", nodes, 4);
  EXPECT_FALSE(result.timed_out);
  EXPECT_GE(result.failed, 1u);
  EXPECT_EQ(result.succeeded + result.failed, h.cluster.node_count());
}

TEST_F(AdminTest, DrainKillsUserJobsAndFlagsConfig) {
  const net::NodeId target = h.cluster.compute_nodes(net::PartitionId{0})[2];
  h.kernel.detector(target).stop();  // keeps the killed entry unreaped
  const auto pid = h.kernel.ppm(target).spawn_local(
      kernel::ProcessSpec{"userjob", "alice", 1.0, 0, 0});
  h.run_s(1.0);

  EXPECT_TRUE(console.drain_node(target));
  h.run_s(1.0);
  EXPECT_TRUE(console.is_drained(target));
  const auto* info = h.cluster.node(target).find_process(pid);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->state, cluster::ProcessState::kKilled);
  // Kernel daemons keep running.
  EXPECT_TRUE(h.kernel.watch_daemon(target).alive());

  EXPECT_TRUE(console.undrain_node(target));
  EXPECT_FALSE(console.is_drained(target));
  EXPECT_FALSE(console.undrain_node(target));  // already undrained
}

TEST_F(AdminTest, DrainDeadNodeFails) {
  const net::NodeId target = h.cluster.compute_nodes(net::PartitionId{0})[3];
  h.injector.crash_node(target);
  EXPECT_FALSE(console.drain_node(target));
}

TEST_F(AdminTest, StatusScreenRenders) {
  const std::string screen = console.render_status();
  EXPECT_NE(screen.find("administration console"), std::string::npos);
  EXPECT_NE(screen.find("service placement"), std::string::npos);
  EXPECT_NE(screen.find("availability"), std::string::npos);
}

// --- lossy fabric robustness -------------------------------------------------

class LossyFabricTest : public ::testing::TestWithParam<double> {};

TEST_P(LossyFabricTest, NoFalseFailuresUnderPacketLoss) {
  cluster::ClusterSpec spec = small_cluster_spec();
  kernel::FtParams params = fast_ft_params();
  params.network_miss_rounds = 3;  // tolerate lost heartbeat datagrams
  KernelHarness h(spec, params);
  h.cluster.fabric().latency_model().loss_probability = GetParam();
  h.run_s(120.0);  // 60 heartbeat rounds under loss

  // Random loss must not be misdiagnosed as node or process failure: a
  // node-level silence needs ALL THREE networks to lose the same round
  // (p^3), and the PPM probe retries resolve the rest.
  for (const auto& record : h.kernel.fault_log().records()) {
    EXPECT_NE(record.kind, kernel::FaultKind::kNodeFailure)
        << "false node failure at loss " << GetParam();
    EXPECT_NE(record.kind, kernel::FaultKind::kProcessFailure)
        << "false process failure at loss " << GetParam();
  }
  EXPECT_GT(h.cluster.fabric().total_stats().messages_lost, 0u);
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossyFabricTest,
                         ::testing::Values(0.01, 0.05, 0.10));

TEST(LossyFabricDetectionTest, RealFaultsStillDetectedUnderLoss) {
  cluster::ClusterSpec spec = small_cluster_spec();
  kernel::FtParams params = fast_ft_params();
  params.network_miss_rounds = 3;
  KernelHarness h(spec, params);
  h.cluster.fabric().latency_model().loss_probability = 0.05;
  h.run_s(5.0);

  const net::NodeId victim = h.cluster.compute_nodes(net::PartitionId{0})[1];
  h.injector.crash_node(victim);
  h.run_s(20.0);
  const auto record = h.kernel.fault_log().last("WD", kernel::FaultKind::kNodeFailure);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->node, victim);
}

}  // namespace
}  // namespace phoenix::admin
