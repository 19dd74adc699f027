// Robustness tests: every kernel daemon must survive unknown, malformed,
// misdirected, and stale messages without crashing or corrupting state —
// plus GridView's time-series/performance-analysis features.
#include <gtest/gtest.h>

#include "gridview/gridview.h"
#include "kernel_fixture.h"
#include "pws/pws.h"
#include "test_client.h"
#include "workload/resource_model.h"

namespace phoenix {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::TestClient;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

/// A message no daemon understands.
struct GarbageMsg final : net::Message {
  std::string_view type() const noexcept override { return "fuzz.garbage"; }
  std::size_t wire_size() const noexcept override { return 64; }
};

TEST(RobustnessTest, EveryKernelDaemonIgnoresGarbage) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  h.run_s(3.0);
  TestClient fuzzer(h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[0],
                    net::PortId{99});

  // Blast every bound kernel port on every node with garbage.
  for (const auto& node : h.cluster.nodes()) {
    for (std::uint16_t port = 1; port <= 13; ++port) {
      fuzzer.send_any({node.id(), net::PortId{port}}, std::make_shared<GarbageMsg>());
    }
  }
  h.run_s(10.0);

  // The kernel keeps working: no spurious fault records, ring intact,
  // heartbeats flowing.
  EXPECT_TRUE(h.kernel.fault_log().records().empty());
  EXPECT_EQ(h.kernel.gsd(net::PartitionId{0}).view().members.size(), 2u);
  const auto before = h.kernel.gsd(net::PartitionId{0}).heartbeats_received();
  h.run_s(4.0);
  EXPECT_GT(h.kernel.gsd(net::PartitionId{0}).heartbeats_received(), before);
}

TEST(RobustnessTest, StaleRepliesIgnored) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  h.run_s(3.0);
  TestClient fuzzer(h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[0],
                    net::PortId{99});

  // Forge replies with request ids nobody issued.
  auto forged_probe = std::make_shared<kernel::ProbeReplyMsg>();
  forged_probe->request_id = 0xdeadbeef;
  fuzzer.send_any(h.kernel.gsd(net::PartitionId{0}).address(), forged_probe);

  auto forged_load = std::make_shared<kernel::CheckpointLoadReplyMsg>();
  forged_load->request_id = 0xdeadbeef;
  forged_load->found = true;
  forged_load->data = "poison";
  fuzzer.send_any(h.kernel.gsd(net::PartitionId{0}).address(), forged_load);
  fuzzer.send_any(h.kernel.event_service(net::PartitionId{0}).address(), forged_load);

  auto forged_start = std::make_shared<kernel::StartServiceReplyMsg>();
  forged_start->request_id = 0xdeadbeef;
  forged_start->ok = true;
  fuzzer.send_any(h.kernel.gsd(net::PartitionId{0}).address(), forged_start);

  h.run_s(8.0);
  EXPECT_TRUE(h.kernel.fault_log().records().empty());
  EXPECT_TRUE(h.kernel.gsd(net::PartitionId{0}).is_leader());
}

TEST(RobustnessTest, ForgedViewWithLowerIdRejected) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  h.run_s(3.0);
  TestClient fuzzer(h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[0],
                    net::PortId{99});

  auto forged = std::make_shared<kernel::ViewChangeMsg>();
  forged->view.view_id = 0;  // lower than the live view
  fuzzer.send_any(h.kernel.gsd(net::PartitionId{1}).address(), forged);
  h.run_s(2.0);
  EXPECT_EQ(h.kernel.gsd(net::PartitionId{1}).view().members.size(), 2u);
  EXPECT_TRUE(h.kernel.gsd(net::PartitionId{1}).joined());
}

TEST(RobustnessTest, MalformedCheckpointDataSurvivesRecovery) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  h.run_s(3.0);
  // Poison the ES registry checkpoint with garbage, then restart the ES.
  h.kernel.checkpoint_service(net::PartitionId{0})
      .save_local("es/0", "registry", "||garbage||lines\nmore|garbage");
  h.kernel.event_service(net::PartitionId{0}).kill();
  h.kernel.event_service(net::PartitionId{0}).start();
  h.run_s(5.0);
  EXPECT_TRUE(h.kernel.event_service(net::PartitionId{0}).alive());
  // A fresh subscription still works end to end.
  TestClient consumer(h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[1]);
  kernel::Subscription sub;
  sub.consumer = consumer.address();
  sub.types = {"post.recovery"};
  h.kernel.event_service(net::PartitionId{0}).subscribe_local(sub, false);
  kernel::Event e;
  e.type = "post.recovery";
  h.kernel.event_service(net::PartitionId{0}).publish_local(e);
  h.run_s(1.0);
  EXPECT_EQ(consumer.of_type<kernel::EsNotifyMsg>().size(), 1u);
}

TEST(RobustnessTest, PwsIgnoresForeignExitNotifications) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  pws::PwsConfig config;
  pws::PoolConfig pool;
  pool.name = "batch";
  pool.nodes = h.cluster.compute_nodes(net::PartitionId{0});
  config.pools = {pool};
  pws::PwsSystem pws_system(h.kernel, config);
  h.run_s(1.0);

  TestClient fuzzer(h.cluster, h.cluster.compute_nodes(net::PartitionId{1})[0],
                    net::PortId{99});
  auto forged = std::make_shared<kernel::ExitNotifyMsg>();
  forged->pid = 424242;
  forged->node = net::NodeId{3};
  fuzzer.send_any(pws_system.scheduler().address(), forged);
  h.run_s(2.0);
  EXPECT_EQ(pws_system.scheduler().stats().completed, 0u);
  EXPECT_TRUE(pws_system.scheduler().alive());
}

TEST(GridViewHistoryTest, TimeSeriesAndSparklines) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  workload::ResourceModelParams load;
  load.update_interval = sim::kSecond;
  workload::ResourceModel model(h.cluster, load);
  model.start();
  gridview::GridView view(h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[0],
                          h.kernel, 2 * sim::kSecond);
  view.start();
  h.run_s(61.0);

  EXPECT_GE(view.history().size(), 25u);
  // Samples are time-ordered.
  for (std::size_t i = 1; i < view.history().size(); ++i) {
    EXPECT_GT(view.history()[i].at, view.history()[i - 1].at);
  }
  EXPECT_GT(view.mean_query_latency_s(), 0.0);
  EXPECT_LT(view.mean_query_latency_s(), 0.1);

  const std::string spark = view.render_sparkline(gridview::GridView::Metric::kMem, 40);
  EXPECT_GE(spark.size(), 40u);
  EXPECT_NE(spark.find('['), std::string::npos);  // range annotation
  EXPECT_EQ(view.render_sparkline(gridview::GridView::Metric::kCpu, 0), "(no data)");
}

TEST(GridViewHistoryTest, HistoryBounded) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  gridview::GridView view(h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[0],
                          h.kernel, 1 * sim::kSecond);
  view.start();
  h.run_s(1000.0);
  EXPECT_LE(view.history().size(), 720u);
}

}  // namespace
}  // namespace phoenix
