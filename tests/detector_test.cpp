// Detector service tests: resource sampling, bulletin exports, application
// lifecycle events.
#include "kernel/detector/detectors.h"

#include <gtest/gtest.h>

#include "kernel_fixture.h"
#include "test_client.h"
#include "workload/resource_model.h"

namespace phoenix::kernel {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::TestClient;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

class DetectorTest : public ::testing::Test {
 protected:
  DetectorTest() : h(small_cluster_spec(), fast_ft_params()) {}
  KernelHarness h;
};

TEST_F(DetectorTest, SamplesPeriodically) {
  h.run_s(5.5);
  // 1 s sample interval (fast params): roughly five samples by now.
  const auto samples = h.kernel.detector(net::NodeId{2}).samples_taken();
  EXPECT_GE(samples, 4u);
  EXPECT_LE(samples, 6u);
}

TEST_F(DetectorTest, ExportsResourceGaugesToBulletin) {
  h.cluster.node(net::NodeId{3}).resources().cpu_pct = 42.5;
  h.kernel.detector(net::NodeId{3}).sample_now();
  h.run_s(1.0);
  bool found = false;
  for (const auto& row : h.kernel.bulletin(net::PartitionId{0}).node_rows()) {
    if (row.node == net::NodeId{3}) {
      found = true;
      EXPECT_DOUBLE_EQ(row.usage.cpu_pct, 42.5);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(DetectorTest, PublishesAppStartedAndExitedEvents) {
  TestClient consumer(h.cluster, net::NodeId{4});
  auto sub = std::make_shared<EsSubscribeMsg>();
  sub->subscription.consumer = consumer.address();
  sub->subscription.types = {std::string(event_types::kAppStarted),
                             std::string(event_types::kAppExited)};
  consumer.send_any(
      h.kernel.service_address(ServiceKind::kEventService, net::PartitionId{0}),
      sub);
  h.run_s(1.0);

  auto& ppm = h.kernel.ppm(net::NodeId{3});
  ppm.spawn_local(ProcessSpec{"appjob", "alice", 1.0, 2 * sim::kSecond, 0});
  h.run_s(6.0);

  bool started = false, exited = false;
  for (const auto* n : consumer.of_type<EsNotifyMsg>()) {
    if (n->event.type == event_types::kAppStarted &&
        n->event.attr("name") == "appjob") {
      started = true;
    }
    if (n->event.type == event_types::kAppExited &&
        n->event.attr("name") == "appjob") {
      exited = true;
      EXPECT_EQ(n->event.attr("state"), "exited");
    }
  }
  EXPECT_TRUE(started);
  EXPECT_TRUE(exited);
}

// The detector reaps every terminal entry right after the sample that
// reports it, so a node's table holds its live processes plus at most one
// sample period of exits, however many jobs it has run.
TEST_F(DetectorTest, ProcessTablesStayBounded) {
  const auto computes = h.cluster.compute_nodes(net::PartitionId{0});
  ASSERT_EQ(computes.size(), 4u);
  // One 20 ms job every 10 ms, round-robin: each node starts one every
  // 40 ms, so at most 25 of its jobs end between two 1 s samples.
  constexpr std::size_t kExitsPerSample = 25;
  std::size_t spawned = 0;
  for (const std::size_t jobs : {2000u, 8000u}) {
    for (; spawned < jobs; ++spawned) {
      h.kernel.ppm(computes[spawned % computes.size()])
          .spawn_local(ProcessSpec{"tick", "alice", 1.0, 20 * sim::kMillisecond, 0});
      h.run(10 * sim::kMillisecond);
    }
    for (const net::NodeId node : computes) {
      const auto& n = h.cluster.node(node);
      EXPECT_LE(n.process_table().size(), n.running_process_count() + kExitsPerSample)
          << "node " << node.value << " after " << jobs << " jobs";
    }
  }
}

// An app that ends while its node's detector is down stays in the table
// until the restarted detector has reported it: exactly one app.exited.
TEST_F(DetectorTest, ExitDuringDetectorOutageAnnouncedOnceAfterRestart) {
  TestClient consumer(h.cluster, net::NodeId{4});
  auto sub = std::make_shared<EsSubscribeMsg>();
  sub->subscription.consumer = consumer.address();
  sub->subscription.types = {std::string(event_types::kAppStarted),
                             std::string(event_types::kAppExited)};
  consumer.send_any(
      h.kernel.service_address(ServiceKind::kEventService, net::PartitionId{0}),
      sub);
  h.run_s(1.0);

  const net::NodeId node{3};
  const cluster::Pid pid = h.kernel.ppm(node).spawn_local(
      ProcessSpec{"outlived", "alice", 1.0, 3 * sim::kSecond, 0});
  h.run_s(1.5);  // sampled running
  auto& detector = h.kernel.detector(node);
  detector.stop();
  h.run_s(4.0);  // the app ends meanwhile
  detector.start();
  h.run_s(5.0);

  const std::string pid_text = std::to_string(pid);
  std::size_t started = 0, exited = 0;
  for (const auto* n : consumer.of_type<EsNotifyMsg>()) {
    if (n->event.attr("pid") != pid_text) continue;
    if (n->event.type == event_types::kAppStarted) ++started;
    if (n->event.type == event_types::kAppExited) {
      ++exited;
      EXPECT_EQ(n->event.attr("state"), "exited");
    }
  }
  EXPECT_EQ(started, 1u);
  EXPECT_EQ(exited, 1u);
}

TEST_F(DetectorTest, DeadDetectorStopsSampling) {
  h.run_s(2.5);
  h.kernel.detector(net::NodeId{2}).kill();
  const auto before = h.kernel.detector(net::NodeId{2}).samples_taken();
  h.run_s(5.0);
  EXPECT_EQ(h.kernel.detector(net::NodeId{2}).samples_taken(), before);
}

TEST_F(DetectorTest, SamplingStaggeredAcrossNodes) {
  // Detectors must not all fire in the same microsecond (thundering herd).
  h.run_s(1.2);
  std::set<sim::SimTime> update_times;
  for (const auto& row : h.kernel.bulletin(net::PartitionId{0}).node_rows()) {
    update_times.insert(row.updated_at);
  }
  EXPECT_GT(update_times.size(), 1u);
}

TEST(ResourceModelTest, DrivesGaugesTowardBaselines) {
  cluster::Cluster cluster(small_cluster_spec());
  workload::ResourceModelParams params;
  params.base_cpu_pct = 10.0;
  params.base_mem_pct = 50.0;
  params.base_swap_pct = 0.7;
  params.update_interval = sim::kSecond;
  workload::ResourceModel model(cluster, params);
  model.start();
  cluster.engine().run_for(60 * sim::kSecond);

  double cpu = 0, mem = 0, swap = 0;
  for (const auto& node : cluster.nodes()) {
    cpu += node.resources().cpu_pct;
    mem += node.resources().mem_pct;
    swap += node.resources().swap_pct;
  }
  const double n = static_cast<double>(cluster.node_count());
  EXPECT_NEAR(cpu / n, 10.0, 8.0);
  EXPECT_NEAR(mem / n, 50.0, 12.0);
  EXPECT_LT(swap / n, 3.0);
}

TEST(ResourceModelTest, GaugesStayInBounds) {
  cluster::Cluster cluster(small_cluster_spec());
  workload::ResourceModel model(cluster, {});
  model.start();
  cluster.engine().run_for(120 * sim::kSecond);
  for (const auto& node : cluster.nodes()) {
    EXPECT_GE(node.resources().cpu_pct, 0.0);
    EXPECT_LE(node.resources().cpu_pct, 100.0);
    EXPECT_GE(node.resources().mem_pct, 0.0);
    EXPECT_LE(node.resources().mem_pct, 100.0);
    EXPECT_GE(node.resources().swap_pct, 0.0);
  }
}

TEST(ResourceModelTest, ProcessLoadRaisesCpu) {
  cluster::Cluster cluster(small_cluster_spec());
  workload::ResourceModelParams params;
  params.base_cpu_pct = 5.0;
  params.cpu_noise = 0.5;
  workload::ResourceModel model(cluster, params);
  // A 4-CPU node fully loaded by a job.
  cluster.node(net::NodeId{2}).add_process(cluster::ProcessInfo{
      .pid = 1, .name = "hpl", .owner = "u",
      .state = cluster::ProcessState::kRunning, .cpu_share = 4.0});
  model.update_once();
  EXPECT_GT(cluster.node(net::NodeId{2}).resources().cpu_pct, 90.0);
  EXPECT_LT(cluster.node(net::NodeId{3}).resources().cpu_pct, 20.0);
}

TEST(ResourceModelTest, DeadNodesNotUpdated) {
  cluster::Cluster cluster(small_cluster_spec());
  workload::ResourceModel model(cluster, {});
  cluster.crash_node(net::NodeId{2});
  const double before = cluster.node(net::NodeId{2}).resources().cpu_pct;
  model.update_once();
  EXPECT_DOUBLE_EQ(cluster.node(net::NodeId{2}).resources().cpu_pct, before);
}

}  // namespace
}  // namespace phoenix::kernel
