// Quorum-safe meta-group failover (FtParams::FailoverPolicy::quorum()):
// regroup concurrence rounds, epoch fencing, and the adversarial scenarios
// the paper's unilateral protocol cannot survive. The twin-harness test at
// the end pins the compatibility contract: the paper() preset reproduces the
// default policy's takeover timings exactly.
#include <gtest/gtest.h>

#include "kernel/group/leader_monitor.h"
#include "kernel/group/meta_group.h"
#include "kernel/ppm/process_manager.h"
#include "kernel/checkpoint/checkpoint_msgs.h"
#include "kernel_fixture.h"
#include "test_client.h"

namespace phoenix::kernel {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::TestClient;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

cluster::ClusterSpec quad_spec() {
  cluster::ClusterSpec spec;
  spec.partitions = 4;
  spec.computes_per_partition = 4;
  spec.backups_per_partition = 2;
  return spec;
}

kernel::FtParams quorum_params() {
  kernel::FtParams p = fast_ft_params();
  p.failover = FtParams::FailoverPolicy::quorum();
  return p;
}

// --- view epoch wire format ---------------------------------------------------

TEST(MetaViewEpochTest, ZeroEpochSerializesExactlyAsLegacy) {
  MetaView v;
  v.view_id = 7;
  v.members.push_back({net::PartitionId{0}, {net::NodeId{4}, net::PortId{2}}, 11});
  const std::string wire = v.serialize();
  EXPECT_EQ(wire.find('@'), std::string::npos);
  EXPECT_EQ(MetaView::deserialize(wire).epoch, 0u);
}

TEST(MetaViewEpochTest, NonzeroEpochRoundtrips) {
  MetaView v;
  v.view_id = 7;
  v.epoch = 3;
  v.members.push_back({net::PartitionId{0}, {net::NodeId{4}, net::PortId{2}}, 11});
  v.members.push_back({net::PartitionId{1}, {net::NodeId{9}, net::PortId{2}}, 12});
  EXPECT_EQ(v.serialize(), "7|@3|0,4,2,11|1,9,2,12");
  const MetaView back = MetaView::deserialize(v.serialize());
  EXPECT_EQ(back.epoch, 3u);
  EXPECT_EQ(back.view_id, 7u);
  ASSERT_EQ(back.members.size(), 2u);
  EXPECT_EQ(back.members[1].partition, net::PartitionId{1});
}

// --- quorum takeover ----------------------------------------------------------

TEST(RegroupTest, QuorumTakeoverOnLeaderNodeCrash) {
  KernelHarness h(quad_spec(), quorum_params());
  LeaderInvariantMonitor monitor(h.kernel);
  h.run_s(5.0);

  const net::NodeId leader_node = h.cluster.server_node(net::PartitionId{0});
  faults::Scenario s;
  s.crash_node(leader_node);
  h.play(s, 45.0);

  // The Princess assembled a quorum, took over, and bumped the epoch past
  // the quorum bootstrap value of 1.
  auto& princess = h.kernel.gsd(net::PartitionId{1});
  EXPECT_TRUE(princess.is_leader());
  EXPECT_GE(princess.regroup_rounds(), 1u);
  EXPECT_GE(princess.meta_epoch(), 2u);
  EXPECT_EQ(princess.quorum_losses(), 0u);

  // Exactly one leader, never two at the same epoch.
  EXPECT_EQ(monitor.violations(), 0u);
  std::size_t leaders = 0;
  for (std::uint32_t p = 0; p < 4; ++p) {
    if (h.kernel.gsd(net::PartitionId{p}).alive() &&
        h.kernel.gsd(net::PartitionId{p}).is_leader()) {
      ++leaders;
    }
  }
  EXPECT_EQ(leaders, 1u);

  // The fence reached every live node's PPM.
  EXPECT_GE(h.kernel.ppm(h.cluster.server_node(net::PartitionId{2}))
                .witnessed_epoch(),
            2u);

  // The crashed partition's GSD migrated and rejoined at the tail with the
  // new epoch; the takeover is journaled as a recovered node failure.
  EXPECT_EQ(princess.view().members.size(), 4u);
  const auto record = h.kernel.fault_log().last("GSD", FaultKind::kNodeFailure);
  ASSERT_TRUE(record.has_value());
  EXPECT_TRUE(record->recovered);
}

TEST(RegroupTest, TwoMemberViewNeverDeposes) {
  // Majority of 2 is 2; a lone survivor's own observation is 1 — quorum is
  // unattainable, so silence alone can never remove the peer. Availability
  // is lost until the peer returns, but split-brain is impossible.
  KernelHarness h(small_cluster_spec(), quorum_params());
  h.run_s(5.0);

  faults::Scenario s;
  s.crash_node(h.cluster.server_node(net::PartitionId{0}));
  h.play(s, 15.0);

  auto& survivor = h.kernel.gsd(net::PartitionId{1});
  EXPECT_GE(survivor.quorum_losses(), 1u);
  EXPECT_GE(survivor.regroup_rounds(), 2u);  // retrying, not giving up
  EXPECT_FALSE(survivor.is_leader());
  EXPECT_EQ(survivor.meta_epoch(), 1u);  // still the quorum bootstrap epoch
  EXPECT_EQ(survivor.view().members.size(), 2u);
}

// --- asymmetric partition -----------------------------------------------------

TEST(RegroupTest, AsymmetricPartitionExoneratesLeaderUnderQuorum) {
  KernelHarness h(quad_spec(), quorum_params());
  LeaderInvariantMonitor monitor(h.kernel);
  h.run_s(5.0);

  // The Princess stops hearing the Leader (one-way blackhole), but every
  // other member still can: their independent probes dissent, the regroup
  // cancels, and the Leader keeps its seat.
  const net::NodeId leader_node = h.cluster.server_node(net::PartitionId{0});
  const net::NodeId princess_node = h.cluster.server_node(net::PartitionId{1});
  faults::Scenario s;
  s.partition_asymmetric(leader_node, princess_node);
  h.play(s, 12.0);

  EXPECT_TRUE(h.kernel.gsd(net::PartitionId{0}).is_leader());
  EXPECT_GE(h.kernel.gsd(net::PartitionId{1}).regroup_rounds(), 1u);
  EXPECT_EQ(monitor.violations(), 0u);
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(h.kernel.gsd(net::PartitionId{p}).view().members.size(), 4u) << p;
    // No takeover committed: everyone stays at the quorum bootstrap epoch.
    EXPECT_EQ(h.kernel.gsd(net::PartitionId{p}).meta_epoch(), 1u) << p;
  }
  // At least one solicited member voted (with dissent, or this would have
  // ended in a removal).
  EXPECT_GE(h.kernel.gsd(net::PartitionId{2}).regroup_votes_cast() +
                h.kernel.gsd(net::PartitionId{3}).regroup_votes_cast(),
            1u);
}

TEST(RegroupTest, UnilateralPolicySplitBrainsOnAsymmetricPartition) {
  // The motivation for the quorum policy: under the paper's protocol the
  // same one-way blackhole makes the Princess depose a perfectly healthy
  // Leader — for a window, two members claim leadership at the same epoch.
  KernelHarness h(quad_spec(), fast_ft_params());
  LeaderInvariantMonitor monitor(h.kernel);
  h.run_s(5.0);

  faults::Scenario s;
  s.partition_asymmetric(h.cluster.server_node(net::PartitionId{0}),
                         h.cluster.server_node(net::PartitionId{1}));
  h.play(s, 4.0);

  EXPECT_GE(monitor.violations(), 1u);
  EXPECT_GE(monitor.max_same_epoch_leaders(), 2);
}

// --- dissent veto -------------------------------------------------------------

TEST(RegroupTest, OneDissentVetoesRemovalDespiteMajorityConcurrence) {
  // 5-member view, quorum = 3. The initiator plus two concurring voters
  // reach the majority arithmetically, but the third voter can still reach
  // the suspect and dissents. One dissent must veto the removal outright —
  // a reachable suspect is partitioned from some members, not dead.
  cluster::ClusterSpec spec;
  spec.partitions = 5;
  spec.computes_per_partition = 2;
  spec.backups_per_partition = 1;
  KernelHarness h(spec, quorum_params());
  LeaderInvariantMonitor monitor(h.kernel);
  h.run_s(5.0);

  // Leader's outbound links to the Princess (initiator) and voters 2 and 3
  // are blackholed: the Princess stops hearing it and those voters' probes
  // time out (concur). Partition 4's links stay clean: its probe answers,
  // and its dissent lands well before the 280 ms concur timeouts.
  const net::NodeId leader_node = h.cluster.server_node(net::PartitionId{0});
  faults::Scenario s;
  for (std::uint32_t p = 1; p <= 3; ++p) {
    s.partition_asymmetric(leader_node,
                           h.cluster.server_node(net::PartitionId{p}));
  }
  h.play(s, 12.0);

  EXPECT_TRUE(h.kernel.gsd(net::PartitionId{0}).is_leader());
  EXPECT_GE(h.kernel.gsd(net::PartitionId{1}).regroup_rounds(), 1u);
  EXPECT_GE(h.kernel.gsd(net::PartitionId{4}).regroup_votes_cast(), 1u);
  EXPECT_EQ(monitor.violations(), 0u);
  for (std::uint32_t p = 0; p < 5; ++p) {
    EXPECT_EQ(h.kernel.gsd(net::PartitionId{p}).view().members.size(), 5u) << p;
    EXPECT_EQ(h.kernel.gsd(net::PartitionId{p}).meta_epoch(), 1u) << p;
  }
}

// --- first takeover fences a still-running deposed Leader ---------------------

TEST(RegroupTest, FirstTakeoverFencesStillRunningDeposedLeader) {
  // The adversarial shape epoch fencing exists for: the Leader's node is
  // fully partitioned from the other servers (alive, but silent and
  // unreachable from their side), AND the direct stale-view notification
  // plus the migration order are lost — so the deposed Leader keeps running
  // with its pre-takeover view and never learns it was removed. Because
  // quorum views bootstrap at epoch 1, everything it stamps is nonzero and
  // falls below the epoch-2 fence of the FIRST takeover.
  KernelHarness h(quad_spec(), quorum_params());
  LeaderInvariantMonitor monitor(h.kernel);
  h.run_s(5.0);

  const net::PartitionId p0{0};
  const net::NodeId leader_node = h.cluster.server_node(p0);
  const net::NodeId princess_node = h.cluster.server_node(net::PartitionId{1});
  faults::Scenario s;
  // Leader's server is cut off from every other server, both directions.
  for (std::uint32_t p = 1; p < 4; ++p) {
    const net::NodeId other = h.cluster.server_node(net::PartitionId{p});
    s.partition_asymmetric(leader_node, other);
    s.partition_asymmetric(other, leader_node);
  }
  // The takeover's migration order to partition 0's backups is lost too, so
  // the old GSD instance survives as a genuine still-running deposed Leader.
  for (net::NodeId backup : h.cluster.backup_nodes(p0)) {
    s.partition_asymmetric(princess_node, backup);
  }
  h.play(s, 25.0);

  // The quorum deposed the Leader (epoch 1 -> 2) and fenced the cluster;
  // the deposed Leader is still alive, still believes it leads, and still
  // stamps the pre-takeover epoch 1 — never the legacy always-admitted 0.
  auto& old_leader = h.kernel.gsd(p0);
  auto& new_leader = h.kernel.gsd(net::PartitionId{1});
  ASSERT_TRUE(old_leader.alive());
  EXPECT_TRUE(old_leader.is_leader());
  EXPECT_EQ(old_leader.meta_epoch(), 1u);
  EXPECT_TRUE(new_leader.is_leader());
  EXPECT_EQ(new_leader.meta_epoch(), 2u);
  EXPECT_EQ(new_leader.view().members.size(), 3u);
  EXPECT_EQ(monitor.violations(), 0u);  // different epochs: fenced, not split

  // The fence reached partition 0's compute nodes (their links are clean).
  const net::NodeId compute = h.cluster.compute_nodes(p0).front();
  ASSERT_EQ(h.kernel.ppm(compute).witnessed_epoch(), 2u);

  // Now the deposed Leader acts on its stale authority: its WD on a compute
  // node dies, it diagnoses the process failure (those links still work),
  // and orders a restart stamped with epoch 1. The fenced PPM must refuse.
  h.injector.kill_daemon(h.kernel.watch_daemon(compute));
  h.run_s(15.0);

  EXPECT_GE(h.kernel.ppm(compute).counters().fenced_rejections, 1u);
  EXPECT_FALSE(h.kernel.watch_daemon(compute).alive());  // not resurrected
  EXPECT_TRUE(old_leader.is_leader());  // still ignorant of its deposition
  EXPECT_EQ(old_leader.meta_epoch(), 1u);
  EXPECT_EQ(monitor.violations(), 0u);
}

// --- epoch fencing ------------------------------------------------------------

class FencingTest : public ::testing::Test {
 protected:
  FencingTest()
      : h(small_cluster_spec(), fast_ft_params()),
        client(h.cluster, net::NodeId{3}) {
    h.run_s(3.0);
  }

  net::Address ppm_addr(net::NodeId node) {
    return {node, port_of(ServiceKind::kProcessManager)};
  }

  void raise_watermark(net::Address to, std::uint64_t epoch) {
    auto fence = std::make_shared<EpochFenceMsg>();
    fence->epoch = epoch;
    client.send_any(to, std::move(fence));
    h.run_s(0.5);
  }

  KernelHarness h;
  TestClient client;
};

TEST_F(FencingTest, StaleStartServiceIsRejectedWithFencedReply) {
  const net::NodeId server = h.cluster.server_node(net::PartitionId{0});
  raise_watermark(ppm_addr(server), 5);
  ASSERT_EQ(h.kernel.ppm(server).witnessed_epoch(), 5u);

  auto stale = std::make_shared<StartServiceMsg>();
  stale->kind = ServiceKind::kEventService;
  stale->partition = net::PartitionId{0};
  stale->reply_to = client.address();
  stale->request_id = 9;
  stale->epoch = 3;  // predates the watermark: a deposed member knocking
  client.send_any(ppm_addr(server), std::move(stale));
  h.run_s(1.0);

  const auto* reply = client.last_of_type<StartServiceReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->fenced);
  EXPECT_FALSE(reply->ok);
  EXPECT_EQ(h.kernel.ppm(server).counters().fenced_rejections, 1u);
}

TEST_F(FencingTest, CurrentEpochStartServicePasses) {
  const net::NodeId server = h.cluster.server_node(net::PartitionId{0});
  raise_watermark(ppm_addr(server), 5);
  h.injector.kill_daemon(h.kernel.event_service(net::PartitionId{0}));

  auto fresh = std::make_shared<StartServiceMsg>();
  fresh->kind = ServiceKind::kEventService;
  fresh->partition = net::PartitionId{0};
  fresh->reply_to = client.address();
  fresh->request_id = 10;
  fresh->epoch = 5;
  client.send_any(ppm_addr(server), std::move(fresh));
  h.run_s(2.0);

  const auto* reply = client.last_of_type<StartServiceReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_FALSE(reply->fenced);
  EXPECT_TRUE(reply->ok);
  EXPECT_EQ(h.kernel.ppm(server).counters().fenced_rejections, 0u);
}

TEST_F(FencingTest, StaleCheckpointSaveIsDroppedSilently) {
  const net::PartitionId p0{0};
  const net::Address cs{h.cluster.server_node(p0),
                        port_of(ServiceKind::kCheckpointService)};
  raise_watermark(cs, 4);

  auto stale = std::make_shared<CheckpointSaveMsg>();
  stale->service = "gsd/0";
  stale->key = "meta_view";
  stale->data = "stale";
  stale->reply_to = client.address();
  stale->request_id = 21;
  stale->epoch = 2;  // a deposed GSD trying to clobber its successor's view
  client.send_any(cs, std::move(stale));
  h.run_s(1.0);

  EXPECT_EQ(client.of_type<CheckpointSaveReplyMsg>().size(), 0u);
  EXPECT_EQ(h.kernel.checkpoint_service(p0).counters().fenced_rejections, 1u);

  auto current = std::make_shared<CheckpointSaveMsg>();
  current->service = "gsd/0";
  current->key = "meta_view";
  current->data = "current";
  current->reply_to = client.address();
  current->request_id = 22;
  current->epoch = 4;
  client.send_any(cs, std::move(current));
  h.run_s(1.0);

  const auto* reply = client.last_of_type<CheckpointSaveReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->request_id, 22u);
}

TEST_F(FencingTest, PaperPolicyNeverRaisesAnyWatermark) {
  // Default (unilateral) runs leave every runtime's witnessed epoch at 0,
  // even across a real takeover — fencing is inert unless quorum is on.
  h.injector.crash_node(h.cluster.server_node(net::PartitionId{0}));
  h.run_s(20.0);
  for (std::uint32_t n = 0; n < h.cluster.nodes().size(); ++n) {
    if (!h.cluster.node(net::NodeId{n}).alive()) continue;
    EXPECT_EQ(h.kernel.ppm(net::NodeId{n}).witnessed_epoch(), 0u) << n;
  }
  EXPECT_EQ(h.kernel.gsd(net::PartitionId{1}).meta_epoch(), 0u);
}

// --- scenario journal ---------------------------------------------------------

TEST(ScenarioTest, StepsJournalThroughInjectorAtScriptedOffsets) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  h.run_s(1.0);
  const sim::SimTime base = h.cluster.now();

  faults::Scenario s;
  s.slow_node(net::NodeId{2}, 50 * sim::kMillisecond)
      .after(2 * sim::kSecond)
      .partition_asymmetric(net::NodeId{2}, net::NodeId{7})
      .after(1 * sim::kSecond)
      .heal_asymmetric(net::NodeId{2}, net::NodeId{7})
      .restore_node_speed(net::NodeId{2});
  EXPECT_EQ(s.step_count(), 4u);
  EXPECT_EQ(s.duration(), 3 * sim::kSecond);
  h.play(s, 1.0);

  const auto& journal = h.injector.history();
  ASSERT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal[0].at, base);
  EXPECT_NE(journal[0].what.find("slow node 2"), std::string::npos);
  EXPECT_EQ(journal[1].at, base + 2 * sim::kSecond);
  EXPECT_NE(journal[1].what.find("block link 2 -> 7"), std::string::npos);
  EXPECT_EQ(journal[2].at, base + 3 * sim::kSecond);
  EXPECT_NE(journal[2].what.find("unblock link 2 -> 7"), std::string::npos);
  EXPECT_EQ(journal[3].at, base + 3 * sim::kSecond);
}

// --- twin harness: paper() preset is the default ------------------------------

TEST(RegroupTest, PaperPresetReproducesDefaultTakeoverTimingsExactly) {
  kernel::FtParams defaults = fast_ft_params();
  kernel::FtParams preset = fast_ft_params();
  preset.failover = FtParams::FailoverPolicy::paper();

  auto run_one = [](const kernel::FtParams& params) {
    KernelHarness h(quad_spec(), params);
    h.run_s(5.0);
    h.kernel.fault_log().clear();
    h.injector.crash_node(h.cluster.server_node(net::PartitionId{0}));
    h.run_s(40.0);
    return h.kernel.fault_log().records();
  };

  const auto a = run_one(defaults);
  const auto b = run_one(preset);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].component, b[i].component) << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].detected_at, b[i].detected_at) << i;
    EXPECT_EQ(a[i].diagnosed_at, b[i].diagnosed_at) << i;
    EXPECT_EQ(a[i].recovered_at, b[i].recovered_at) << i;
    EXPECT_EQ(a[i].recovered, b[i].recovered) << i;
  }
}

}  // namespace
}  // namespace phoenix::kernel
