// Checkpoint service tests: save/load/delete, replication across the
// federation, cross-partition recovery fetch, serving delays.
#include "kernel/checkpoint/checkpoint_service.h"

#include <gtest/gtest.h>

#include "kernel_fixture.h"
#include "test_client.h"

namespace phoenix::kernel {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::TestClient;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() : h(small_cluster_spec(), fast_ft_params()) {
    h.run_s(1.0);
  }

  CheckpointService& cs(std::uint32_t p) {
    return h.kernel.checkpoint_service(net::PartitionId{p});
  }

  KernelHarness h;
};

TEST_F(CheckpointTest, LocalSaveLoadDelete) {
  cs(0).save_local("svc", "key", "hello", /*replicate=*/false);
  ASSERT_TRUE(cs(0).load_local("svc", "key").has_value());
  EXPECT_EQ(*cs(0).load_local("svc", "key"), "hello");
  EXPECT_TRUE(cs(0).delete_local("svc", "key", false));
  EXPECT_FALSE(cs(0).load_local("svc", "key").has_value());
  EXPECT_FALSE(cs(0).delete_local("svc", "key", false));
}

TEST_F(CheckpointTest, VersionsOverwrite) {
  cs(0).save_local("svc", "k", "v1", false);
  cs(0).save_local("svc", "k", "v2", false);
  EXPECT_EQ(*cs(0).load_local("svc", "k"), "v2");
}

TEST_F(CheckpointTest, SaveReplicatesToRingSuccessor) {
  cs(0).save_local("svc", "replicated", "data");
  h.run_s(1.0);
  // Replication factor 2: partition 1 holds the replica.
  ASSERT_TRUE(cs(1).load_local("svc", "replicated").has_value());
  EXPECT_EQ(*cs(1).load_local("svc", "replicated"), "data");
}

TEST_F(CheckpointTest, DeleteReplicates) {
  cs(0).save_local("svc", "gone", "data");
  h.run_s(1.0);
  cs(0).delete_local("svc", "gone");
  h.run_s(1.0);
  EXPECT_FALSE(cs(1).load_local("svc", "gone").has_value());
}

TEST_F(CheckpointTest, StaleReplicationIgnored) {
  // A replicate with a lower version than the stored one must not win.
  cs(1).save_local("svc", "k", "newer", false);
  auto msg = std::make_shared<CheckpointReplicateMsg>();
  msg->service = "svc";
  msg->key = "k";
  msg->data = "older";
  msg->version = 0;
  TestClient client(h.cluster, net::NodeId{3});
  client.send_any(cs(1).address(), msg);
  h.run_s(1.0);
  EXPECT_EQ(*cs(1).load_local("svc", "k"), "newer");
}

TEST_F(CheckpointTest, MessageSaveAndLoad) {
  TestClient client(h.cluster, net::NodeId{2});
  auto save = std::make_shared<CheckpointSaveMsg>();
  save->service = "app";
  save->key = "state";
  save->data = "blob";
  save->reply_to = client.address();
  save->request_id = 3;
  client.send_any(cs(0).address(), save);
  h.run_s(1.0);
  const auto* saved = client.last_of_type<CheckpointSaveReplyMsg>();
  ASSERT_NE(saved, nullptr);
  EXPECT_GT(saved->version, 0u);

  auto load = std::make_shared<CheckpointLoadMsg>();
  load->service = "app";
  load->key = "state";
  load->reply_to = client.address();
  load->request_id = 4;
  client.send_any(cs(0).address(), load);
  h.run_s(5.0);
  const auto* loaded = client.last_of_type<CheckpointLoadReplyMsg>();
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(loaded->found);
  EXPECT_EQ(loaded->data, "blob");
}

TEST_F(CheckpointTest, SamePartitionLoadIsFastCrossPartitionSlow) {
  cs(0).save_local("app", "state", "blob", false);
  const auto& params = h.kernel.params();

  // Same-partition requester: disk-read delay only.
  TestClient local_client(h.cluster, net::NodeId{2});  // partition 0
  auto load = std::make_shared<CheckpointLoadMsg>();
  load->service = "app";
  load->key = "state";
  load->reply_to = local_client.address();
  const sim::SimTime t0 = h.cluster.now();
  local_client.send_any(cs(0).address(), load);
  while (local_client.of_type<CheckpointLoadReplyMsg>().empty()) {
    ASSERT_TRUE(h.cluster.engine().step());
  }
  const sim::SimTime local_latency = h.cluster.now() - t0;
  EXPECT_GE(local_latency, params.checkpoint_local_fetch);
  EXPECT_LT(local_latency, params.checkpoint_federation_fetch);

  // Cross-partition requester asking the same instance: cold-segment scan.
  TestClient remote_client(h.cluster, net::NodeId{8});  // partition 1
  auto load2 = std::make_shared<CheckpointLoadMsg>();
  load2->service = "app";
  load2->key = "state";
  load2->reply_to = remote_client.address();
  const sim::SimTime t1 = h.cluster.now();
  remote_client.send_any(cs(0).address(), load2);
  while (remote_client.of_type<CheckpointLoadReplyMsg>().empty()) {
    ASSERT_TRUE(h.cluster.engine().step());
  }
  EXPECT_GE(h.cluster.now() - t1, params.checkpoint_federation_fetch);
}

TEST_F(CheckpointTest, LoadMissFetchesFromFederation) {
  // Data saved at partition 1 WITHOUT replication; ask partition 0.
  cs(1).save_local("app", "faraway", "remote-data", false);
  TestClient client(h.cluster, net::NodeId{2});
  auto load = std::make_shared<CheckpointLoadMsg>();
  load->service = "app";
  load->key = "faraway";
  load->reply_to = client.address();
  client.send_any(cs(0).address(), load);
  h.run_s(5.0);
  const auto* reply = client.last_of_type<CheckpointLoadReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->found);
  EXPECT_EQ(reply->data, "remote-data");
}

TEST_F(CheckpointTest, LoadTrulyMissingReturnsNotFound) {
  TestClient client(h.cluster, net::NodeId{2});
  auto load = std::make_shared<CheckpointLoadMsg>();
  load->service = "app";
  load->key = "never-saved";
  load->reply_to = client.address();
  client.send_any(cs(0).address(), load);
  h.run_s(10.0);
  const auto* reply = client.last_of_type<CheckpointLoadReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_FALSE(reply->found);
}

TEST_F(CheckpointTest, ReplicaSurvivesPrimaryNodeCrash) {
  cs(0).save_local("svc", "precious", "irreplaceable");
  h.run_s(1.0);
  h.injector.crash_node(h.cluster.server_node(net::PartitionId{0}));

  // Partition 1's instance can still serve it.
  TestClient client(h.cluster, net::NodeId{8});
  auto load = std::make_shared<CheckpointLoadMsg>();
  load->service = "svc";
  load->key = "precious";
  load->reply_to = client.address();
  client.send_any(cs(1).address(), load);
  h.run_s(5.0);
  const auto* reply = client.last_of_type<CheckpointLoadReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->found);
  EXPECT_EQ(reply->data, "irreplaceable");
}

TEST_F(CheckpointTest, LoadReplyKeepsBytesAcrossOverwrite) {
  cs(0).save_local("app", "state", "v1", false);
  TestClient client(h.cluster, net::NodeId{2});  // partition 0
  auto load = std::make_shared<CheckpointLoadMsg>();
  load->service = "app";
  load->key = "state";
  load->reply_to = client.address();
  client.send_any(cs(0).address(), load);
  // The load has arrived and its reply waits out the disk-read delay.
  h.run(h.kernel.params().checkpoint_local_fetch / 2);
  ASSERT_EQ(client.last_of_type<CheckpointLoadReplyMsg>(), nullptr);
  cs(0).save_local("app", "state", "v2", false);
  h.run_s(1.0);
  const auto* reply = client.last_of_type<CheckpointLoadReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->data, "v1");
  EXPECT_EQ(*cs(0).load_local("app", "state"), "v2");
}

TEST_F(CheckpointTest, ReplicaSharesOriginBytes) {
  cs(0).save_local("svc", "shared", std::string(4096, 'x'));
  h.run_s(1.0);
  const auto origin = cs(0).load_local("svc", "shared");
  const auto replica = cs(1).load_local("svc", "shared");
  ASSERT_TRUE(origin.has_value());
  ASSERT_TRUE(replica.has_value());
  EXPECT_EQ(replica->str(), origin->str());
  // One buffer per save: the replica holds the origin's bytes, not a copy.
  EXPECT_EQ(replica->str().data(), origin->str().data());
}

TEST(CheckpointWireTest, ByteCarryingMessagesKeepTheirSizes) {
  CheckpointSaveMsg save;
  save.service = "pws";
  save.key = "jobs";
  EXPECT_EQ(save.wire_size(), 23u);
  save.data = "0123456789";
  EXPECT_EQ(save.wire_size(), 33u);
  save.epoch = 5;
  save.scope = 2;
  EXPECT_EQ(save.wire_size(), 45u);

  CheckpointReplicateMsg rep;
  rep.service = "pws";
  rep.key = "jobs";
  rep.data = "0123456789";
  rep.deleted = true;
  EXPECT_EQ(rep.wire_size(), 34u);

  CheckpointLoadReplyMsg reply;
  EXPECT_EQ(reply.wire_size(), 25u);
  reply.data = std::string("0123456789");
  EXPECT_EQ(reply.wire_size(), 35u);
}

TEST(CheckpointReplicationFactorTest, HigherFactorReachesMorePartitions) {
  cluster::ClusterSpec spec = small_cluster_spec();
  spec.partitions = 4;
  KernelHarness h(spec, fast_ft_params());
  h.run_s(1.0);
  h.kernel.checkpoint_service(net::PartitionId{0}).set_replication_factor(3);
  h.kernel.checkpoint_service(net::PartitionId{0})
      .save_local("svc", "wide", "data");
  h.run_s(1.0);
  EXPECT_TRUE(h.kernel.checkpoint_service(net::PartitionId{1})
                  .load_local("svc", "wide")
                  .has_value());
  EXPECT_TRUE(h.kernel.checkpoint_service(net::PartitionId{2})
                  .load_local("svc", "wide")
                  .has_value());
  EXPECT_FALSE(h.kernel.checkpoint_service(net::PartitionId{3})
                   .load_local("svc", "wide")
                   .has_value());
}

}  // namespace
}  // namespace phoenix::kernel
