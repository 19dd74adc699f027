// Parallel process management tests: probes, remote spawn/kill,
// exit notification, service restarts, parallel commands with tree fan-out.
#include "kernel/ppm/process_manager.h"

#include <gtest/gtest.h>

#include "kernel_fixture.h"
#include "test_client.h"

namespace phoenix::kernel {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::TestClient;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

class PpmTest : public ::testing::Test {
 protected:
  PpmTest() : h(small_cluster_spec(), fast_ft_params()), client(h.cluster, net::NodeId{3}) {}

  net::Address ppm_addr(std::uint32_t node) {
    return {net::NodeId{node}, port_of(ServiceKind::kProcessManager)};
  }

  KernelHarness h;
  TestClient client;
};

TEST_F(PpmTest, ProbeAnswersOnSameNetwork) {
  auto probe = std::make_shared<ProbeMsg>();
  probe->reply_to = client.address();
  probe->request_id = 77;
  client.send(ppm_addr(2), net::NetworkId{1}, probe);
  h.cluster.engine().run_for(sim::kSecond);
  const auto* reply = client.last_of_type<ProbeReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->request_id, 77u);
  EXPECT_EQ(reply->node.value, 2u);
}

TEST_F(PpmTest, DeadNodeDoesNotAnswerProbe) {
  h.injector.crash_node(net::NodeId{2});
  auto probe = std::make_shared<ProbeMsg>();
  probe->reply_to = client.address();
  client.send_any(ppm_addr(2), probe);
  h.run_s(2.0);
  EXPECT_EQ(client.of_type<ProbeReplyMsg>().size(), 0u);
}

TEST_F(PpmTest, SpawnCreatesProcessAndReplies) {
  auto spawn = std::make_shared<SpawnMsg>();
  spawn->spec = ProcessSpec{"myjob", "alice", 2.0, 5 * sim::kSecond, 1 << 20};
  spawn->reply_to = client.address();
  spawn->request_id = 5;
  client.send_any(ppm_addr(4), spawn);
  h.run_s(1.0);

  const auto* reply = client.last_of_type<SpawnReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->ok);
  const auto* info = h.cluster.node(net::NodeId{4}).find_process(reply->pid);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->name, "myjob");
  EXPECT_EQ(info->owner, "alice");
  EXPECT_EQ(info->state, cluster::ProcessState::kRunning);
}

TEST_F(PpmTest, ProcessExitsAfterDurationWithNotify) {
  h.kernel.detector(net::NodeId{4}).stop();  // keeps the exited entry unreaped
  auto spawn = std::make_shared<SpawnMsg>();
  spawn->spec = ProcessSpec{"shortjob", "alice", 1.0, 3 * sim::kSecond, 1024};
  spawn->reply_to = client.address();
  spawn->exit_notify = client.address();
  client.send_any(ppm_addr(4), spawn);
  h.run_s(1.0);
  const auto* reply = client.last_of_type<SpawnReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(client.of_type<ExitNotifyMsg>().size(), 0u);

  h.run_s(3.0);
  const auto* exit = client.last_of_type<ExitNotifyMsg>();
  ASSERT_NE(exit, nullptr);
  EXPECT_EQ(exit->pid, reply->pid);
  EXPECT_EQ(exit->name, "shortjob");
  const auto* info = h.cluster.node(net::NodeId{4}).find_process(reply->pid);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->state, cluster::ProcessState::kExited);
}

TEST_F(PpmTest, KillTerminatesProcess) {
  h.kernel.detector(net::NodeId{4}).stop();  // keeps the killed entry unreaped
  auto spawn = std::make_shared<SpawnMsg>();
  spawn->spec = ProcessSpec{"victim", "alice", 1.0, 0 /*runs forever*/, 1024};
  spawn->reply_to = client.address();
  client.send_any(ppm_addr(4), spawn);
  h.run_s(1.0);
  const auto pid = client.last_of_type<SpawnReplyMsg>()->pid;

  auto kill = std::make_shared<KillMsg>();
  kill->pid = pid;
  kill->reply_to = client.address();
  kill->request_id = 9;
  client.send_any(ppm_addr(4), kill);
  h.run_s(1.0);
  const auto* reply = client.last_of_type<KillReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->ok);
  EXPECT_EQ(h.cluster.node(net::NodeId{4}).find_process(pid)->state,
            cluster::ProcessState::kKilled);
}

TEST_F(PpmTest, RestartServiceBringsDaemonBack) {
  auto& wd = h.kernel.watch_daemon(net::NodeId{4});
  wd.kill();
  ASSERT_FALSE(wd.alive());

  auto restart = std::make_shared<StartServiceMsg>();
  restart->kind = ServiceKind::kWatchDaemon;
  restart->create = false;
  restart->reply_to = client.address();
  restart->request_id = 11;
  client.send_any(ppm_addr(4), restart);
  h.run_s(1.0);
  const auto* reply = client.last_of_type<StartServiceReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->ok);
  EXPECT_TRUE(wd.alive());
}

TEST_F(PpmTest, RestartUnknownServiceReportsFailure) {
  auto restart = std::make_shared<StartServiceMsg>();
  restart->kind = ServiceKind::kGroupService;  // no GSD instance on node 4
  restart->create = false;
  restart->reply_to = client.address();
  client.send_any(ppm_addr(4), restart);
  h.run_s(1.0);
  const auto* reply = client.last_of_type<StartServiceReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_FALSE(reply->ok);
}

TEST_F(PpmTest, ParallelCommandCoversAllNodes) {
  auto cmd = std::make_shared<ParallelCmdMsg>();
  cmd->command = "uptime";
  for (const auto& node : h.cluster.nodes()) cmd->nodes.push_back(node.id());
  cmd->fanout = 3;
  cmd->reply_to = client.address();
  cmd->request_id = 21;
  client.send_any(ppm_addr(0), cmd);
  h.run_s(10.0);
  const auto* reply = client.last_of_type<ParallelCmdReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->succeeded, h.cluster.node_count());
  EXPECT_EQ(reply->failed, 0u);
}

TEST_F(PpmTest, ParallelCommandReportsDeadNodesAsFailed) {
  h.injector.crash_node(net::NodeId{4});
  auto cmd = std::make_shared<ParallelCmdMsg>();
  cmd->command = "uptime";
  for (const auto& node : h.cluster.nodes()) cmd->nodes.push_back(node.id());
  cmd->fanout = 4;
  cmd->reply_to = client.address();
  client.send_any(ppm_addr(0), cmd);
  h.run_s(15.0);
  const auto* reply = client.last_of_type<ParallelCmdReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->succeeded + reply->failed, h.cluster.node_count());
  EXPECT_GE(reply->failed, 1u);
  EXPECT_LT(reply->succeeded, h.cluster.node_count());
}

// A subtree that stays silent to the timeout fails every node it covers,
// the same as a chunk whose head is unreachable. Root 0 at fanout 4 splits
// nodes 1-11 into {1, 2, 3}, {4, 5, 6}, {7, 8, 9} and {10, 11}; node 4 is up
// but its PPM is dead.
TEST_F(PpmTest, ParallelCommandSilentSubtreeFailsEveryCoveredNode) {
  h.injector.kill_daemon(h.kernel.ppm(net::NodeId{4}));
  auto cmd = std::make_shared<ParallelCmdMsg>();
  cmd->command = "uptime";
  for (const auto& node : h.cluster.nodes()) cmd->nodes.push_back(node.id());
  ASSERT_EQ(cmd->nodes.size(), 12u);
  cmd->fanout = 4;
  cmd->reply_to = client.address();
  client.send_any(ppm_addr(0), cmd);
  h.run_s(10.0);
  const auto* reply = client.last_of_type<ParallelCmdReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->succeeded, 9u);
  EXPECT_EQ(reply->failed, 3u);
}

TEST_F(PpmTest, ParallelCommandSingleNode) {
  auto cmd = std::make_shared<ParallelCmdMsg>();
  cmd->command = "true";
  cmd->nodes = {net::NodeId{0}};
  cmd->reply_to = client.address();
  client.send_any(ppm_addr(0), cmd);
  h.run_s(5.0);
  const auto* reply = client.last_of_type<ParallelCmdReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->succeeded, 1u);
}

TEST_F(PpmTest, SpawnLocalDirect) {
  auto& ppm = h.kernel.ppm(net::NodeId{2});
  const auto pid = ppm.spawn_local(ProcessSpec{"direct", "bob", 0.5, 0, 0});
  EXPECT_NE(h.cluster.node(net::NodeId{2}).find_process(pid), nullptr);
}

}  // namespace
}  // namespace phoenix::kernel
