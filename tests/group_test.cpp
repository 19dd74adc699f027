// Group service tests: heartbeat monitoring, fault diagnosis (process vs.
// node vs. network), WD restart, meta-group ring membership, Leader /
// Princess takeover, GSD restart and migration.
#include "kernel/group/group_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "kernel/checkpoint/checkpoint_msgs.h"
#include "kernel/ppm/process_manager.h"
#include "kernel_fixture.h"

namespace phoenix::kernel {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

MetaMember member(std::uint32_t partition, std::uint32_t node,
                  std::uint64_t incarnation = 0) {
  return MetaMember{net::PartitionId{partition}, {net::NodeId{node}, net::PortId{2}},
                    incarnation};
}

std::vector<std::uint32_t> ids(const std::vector<net::PartitionId>& partitions) {
  std::vector<std::uint32_t> out;
  for (net::PartitionId p : partitions) out.push_back(p.value);
  return out;
}

std::vector<std::uint32_t> ids(const std::vector<MetaMember>& members) {
  std::vector<std::uint32_t> out;
  for (const MetaMember& m : members) out.push_back(m.partition.value);
  return out;
}

/// A ViewChangeMsg from `from`, handed straight to `to`'s handler.
void deliver_view(const GroupServiceDaemon& from, GroupServiceDaemon& to,
                  MetaView view) {
  auto msg = std::make_shared<ViewChangeMsg>();
  msg->view = std::move(view);
  to.deliver(net::Envelope{from.address(), to.address(), net::NetworkId{0},
                           std::move(msg)});
}

class GroupServiceTest : public ::testing::Test {
 protected:
  GroupServiceTest() : h(small_cluster_spec(), fast_ft_params()) {
    // Let the system settle: a few heartbeat rounds.
    h.run_s(5.0);
    h.kernel.fault_log().clear();
  }

  phoenix::testing::KernelHarness h;
};

TEST_F(GroupServiceTest, BootFormsFullMetaGroup) {
  const auto& view = h.kernel.gsd(net::PartitionId{0}).view();
  EXPECT_EQ(view.members.size(), 2u);
  EXPECT_TRUE(h.kernel.gsd(net::PartitionId{0}).is_leader());
  EXPECT_TRUE(h.kernel.gsd(net::PartitionId{1}).is_princess());
  EXPECT_FALSE(h.kernel.gsd(net::PartitionId{1}).is_leader());
}

TEST_F(GroupServiceTest, HeartbeatsFlow) {
  const auto before = h.kernel.gsd(net::PartitionId{0}).heartbeats_received();
  h.run_s(4.0);
  EXPECT_GT(h.kernel.gsd(net::PartitionId{0}).heartbeats_received(), before);
}

TEST_F(GroupServiceTest, HealthyClusterLogsNoFaults) {
  h.run_s(30.0);
  EXPECT_TRUE(h.kernel.fault_log().records().empty());
}

TEST_F(GroupServiceTest, WdProcessFailureDiagnosedAndRestarted) {
  const net::NodeId victim = h.cluster.compute_nodes(net::PartitionId{0})[1];
  const sim::SimTime injected = h.injector.kill_daemon(h.kernel.watch_daemon(victim));
  h.run_s(10.0);

  const auto record = h.kernel.fault_log().last("WD");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->kind, FaultKind::kProcessFailure);
  EXPECT_EQ(record->node, victim);
  EXPECT_TRUE(record->recovered);
  // Detection happens at the first check after one missed heartbeat; with
  // an arbitrary fault phase that is at most ~2 intervals.
  const auto detect = record->detected_at - injected;
  EXPECT_GE(detect, 1 * sim::kSecond);
  EXPECT_LE(detect, 2 * 2 * sim::kSecond + sim::kSecond);
  // Diagnosis: probe RTT + confirmation round, well under a second.
  EXPECT_LT(record->diagnosed_at - record->detected_at, sim::kSecond);
  // The WD is actually running again and beating.
  EXPECT_TRUE(h.kernel.watch_daemon(victim).alive());
  EXPECT_EQ(h.kernel.gsd(net::PartitionId{0}).node_status(victim),
            GroupServiceDaemon::NodeStatus::kHealthy);
}

// The node dies right after the GSD orders its WD restart: the order is
// lost with it, and the unanswered restart must send the node back through
// diagnosis instead of leaving it "process failed" forever.
TEST_F(GroupServiceTest, WdRestartLostToNodeCrashIsDiagnosed) {
  const net::NodeId victim = h.cluster.compute_nodes(net::PartitionId{0})[1];
  const auto& gsd = h.kernel.gsd(net::PartitionId{0});
  h.injector.kill_daemon(h.kernel.watch_daemon(victim));
  const sim::SimTime give_up = h.cluster.now() + 30 * sim::kSecond;
  while (gsd.node_status(victim) != GroupServiceDaemon::NodeStatus::kProcessFailed) {
    ASSERT_LT(h.cluster.now(), give_up);
    ASSERT_TRUE(h.cluster.engine().step());
  }
  const sim::SimTime crashed = h.injector.crash_node(victim);
  h.run_s(10.0);

  const auto record = h.kernel.fault_log().last("WD", FaultKind::kNodeFailure);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->node, victim);
  EXPECT_LE(record->diagnosed_at - crashed, 10 * sim::kSecond);
  EXPECT_EQ(gsd.node_status(victim), GroupServiceDaemon::NodeStatus::kNodeFailed);
}

// Only the PPM's restart reply is lost: the restarted WD's heartbeat
// closes the record, and the unanswered call leaves the node healthy.
TEST_F(GroupServiceTest, WdRestartReplyLostStillRecovers) {
  const net::NodeId victim = h.cluster.compute_nodes(net::PartitionId{0})[1];
  h.cluster.fabric().set_drop_filter(
      [](const net::Address&, const net::Address&, const net::Message& m) {
        return m.type_id() == StartServiceReplyMsg::static_type_id();
      });
  h.injector.kill_daemon(h.kernel.watch_daemon(victim));
  h.run_s(15.0);

  const auto record = h.kernel.fault_log().last("WD");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->kind, FaultKind::kProcessFailure);
  EXPECT_EQ(record->node, victim);
  EXPECT_TRUE(record->recovered);
  EXPECT_TRUE(h.kernel.watch_daemon(victim).alive());
  EXPECT_EQ(h.kernel.gsd(net::PartitionId{0}).node_status(victim),
            GroupServiceDaemon::NodeStatus::kHealthy);
}

// A slow node's PPM answers the first probe attempt only during the second
// (900 ms against a 650 ms attempt). All attempts belong to one probe, so the
// late reply still proves the WD alive: no node failure is declared.
TEST_F(GroupServiceTest, LateProbeReplyStillClearsSuspicion) {
  const net::NodeId victim = h.cluster.compute_nodes(net::PartitionId{0})[1];
  const auto& gsd = h.kernel.gsd(net::PartitionId{0});
  h.injector.slow_node(victim, 900 * sim::kMillisecond);
  const sim::SimTime give_up = h.cluster.now() + 10 * sim::kSecond;
  while (gsd.node_status(victim) != GroupServiceDaemon::NodeStatus::kSuspect) {
    ASSERT_LT(h.cluster.now(), give_up);
    ASSERT_TRUE(h.cluster.engine().step());
  }
  h.run_s(10.0);

  EXPECT_FALSE(h.kernel.fault_log().last("WD", FaultKind::kNodeFailure).has_value());
  EXPECT_EQ(gsd.node_status(victim), GroupServiceDaemon::NodeStatus::kHealthy);
}

TEST_F(GroupServiceTest, NodeFailureDiagnosedNoMigrationForComputeNode) {
  const net::NodeId victim = h.cluster.compute_nodes(net::PartitionId{0})[0];
  h.injector.crash_node(victim);
  h.run_s(12.0);

  const auto record = h.kernel.fault_log().last("WD");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->kind, FaultKind::kNodeFailure);
  EXPECT_EQ(record->node, victim);
  EXPECT_TRUE(record->recovered);
  EXPECT_EQ(record->recovered_at, record->diagnosed_at);  // nothing to migrate
  EXPECT_EQ(h.kernel.gsd(net::PartitionId{0}).node_status(victim),
            GroupServiceDaemon::NodeStatus::kNodeFailed);
}

TEST_F(GroupServiceTest, NodeRecoveryDetectedWhenWdResumes) {
  const net::NodeId victim = h.cluster.compute_nodes(net::PartitionId{0})[0];
  h.injector.crash_node(victim);
  h.run_s(12.0);
  ASSERT_EQ(h.kernel.gsd(net::PartitionId{0}).node_status(victim),
            GroupServiceDaemon::NodeStatus::kNodeFailed);

  h.injector.restore_node(victim);
  h.kernel.watch_daemon(victim).start();
  h.run_s(5.0);
  EXPECT_EQ(h.kernel.gsd(net::PartitionId{0}).node_status(victim),
            GroupServiceDaemon::NodeStatus::kHealthy);
}

TEST_F(GroupServiceTest, SingleNetworkFailureDiagnosedWithZeroRecovery) {
  const net::NodeId victim = h.cluster.compute_nodes(net::PartitionId{0})[2];
  h.injector.cut_interface(victim, net::NetworkId{1});
  h.run_s(8.0);

  const auto record = h.kernel.fault_log().last("WD", FaultKind::kNetworkFailure);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->node, victim);
  EXPECT_EQ(record->network, net::NetworkId{1});
  EXPECT_TRUE(record->recovered);
  EXPECT_EQ(record->recovered_at, record->diagnosed_at);
  // Diagnosis is table analysis: sub-millisecond.
  EXPECT_LE(record->diagnosed_at - record->detected_at, sim::kMillisecond);
  // The node itself stays healthy.
  EXPECT_EQ(h.kernel.gsd(net::PartitionId{0}).node_status(victim),
            GroupServiceDaemon::NodeStatus::kHealthy);
}

TEST_F(GroupServiceTest, AllNetworksCutDiagnosedAsNodeFailure) {
  // With every interface down the node is unreachable; the GSD cannot and
  // should not distinguish this from a crash.
  const net::NodeId victim = h.cluster.compute_nodes(net::PartitionId{0})[3];
  for (std::uint8_t n = 0; n < 3; ++n) {
    h.injector.cut_interface(victim, net::NetworkId{n});
  }
  h.run_s(12.0);
  const auto record = h.kernel.fault_log().last("WD");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->kind, FaultKind::kNodeFailure);
}

TEST_F(GroupServiceTest, GsdProcessFailureRestartedInPlace) {
  auto& victim = h.kernel.gsd(net::PartitionId{1});
  const net::NodeId victim_node = victim.node_id();
  h.injector.kill_daemon(victim);
  h.run_s(15.0);

  const auto record = h.kernel.fault_log().last("GSD");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->kind, FaultKind::kProcessFailure);
  EXPECT_EQ(record->partition, net::PartitionId{1});
  EXPECT_TRUE(record->recovered);

  // Restarted on the SAME node, rejoined the ring at the tail.
  auto& recovered = h.kernel.gsd(net::PartitionId{1});
  EXPECT_TRUE(recovered.alive());
  EXPECT_EQ(recovered.node_id(), victim_node);
  const auto& view = h.kernel.gsd(net::PartitionId{0}).view();
  EXPECT_EQ(view.members.size(), 2u);
  EXPECT_TRUE(view.contains(net::PartitionId{1}));
  EXPECT_TRUE(h.kernel.gsd(net::PartitionId{0}).is_leader());
}

TEST_F(GroupServiceTest, ServerNodeCrashMigratesGsdToBackup) {
  const net::NodeId server = h.cluster.server_node(net::PartitionId{1});
  const net::NodeId backup = h.cluster.backup_nodes(net::PartitionId{1})[0];
  h.injector.crash_node(server);
  h.run_s(20.0);

  const auto record = h.kernel.fault_log().last("GSD");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->kind, FaultKind::kNodeFailure);
  EXPECT_TRUE(record->recovered);

  auto& migrated = h.kernel.gsd(net::PartitionId{1});
  EXPECT_TRUE(migrated.alive());
  EXPECT_EQ(migrated.node_id(), backup);
  EXPECT_EQ(h.kernel.service_node(ServiceKind::kGroupService, net::PartitionId{1}),
            backup);
  // Ring reformed with both partitions.
  EXPECT_EQ(h.kernel.gsd(net::PartitionId{0}).view().members.size(), 2u);
}

TEST_F(GroupServiceTest, ServerNodeCrashAlsoRecoversKernelServices) {
  const net::NodeId server = h.cluster.server_node(net::PartitionId{1});
  const net::NodeId backup = h.cluster.backup_nodes(net::PartitionId{1})[0];
  h.injector.crash_node(server);
  h.run_s(30.0);

  for (const char* component : {"ES", "DB", "CS"}) {
    const auto record = h.kernel.fault_log().last(component);
    ASSERT_TRUE(record.has_value()) << component;
    EXPECT_EQ(record->kind, FaultKind::kNodeFailure) << component;
    EXPECT_TRUE(record->recovered) << component;
  }
  EXPECT_TRUE(h.kernel.event_service(net::PartitionId{1}).alive());
  EXPECT_EQ(h.kernel.event_service(net::PartitionId{1}).node_id(), backup);
  EXPECT_TRUE(h.kernel.checkpoint_service(net::PartitionId{1}).alive());
  EXPECT_TRUE(h.kernel.bulletin(net::PartitionId{1}).alive());

  // Partition WDs re-pointed their heartbeats to the migrated GSD.
  const net::NodeId compute = h.cluster.compute_nodes(net::PartitionId{1})[0];
  EXPECT_EQ(h.kernel.watch_daemon(compute).gsd_address().node, backup);
}

TEST_F(GroupServiceTest, LeaderFailurePromotesPrincess) {
  // Partition 0 holds the leader; crash its server node.
  const net::NodeId server = h.cluster.server_node(net::PartitionId{0});
  h.injector.crash_node(server);
  h.run_s(20.0);

  // The princess (partition 1) must now lead.
  EXPECT_TRUE(h.kernel.gsd(net::PartitionId{1}).is_leader());
  // The recovered partition-0 GSD rejoined at the tail, not as leader.
  EXPECT_FALSE(h.kernel.gsd(net::PartitionId{0}).is_leader());
  EXPECT_TRUE(h.kernel.gsd(net::PartitionId{0}).alive());
}

TEST_F(GroupServiceTest, GsdNetworkFailureDetectedByRingSuccessor) {
  const net::NodeId server = h.cluster.server_node(net::PartitionId{0});
  const net::NodeId peer_server = h.cluster.server_node(net::PartitionId{1});
  h.injector.cut_interface(server, net::NetworkId{2});
  h.run_s(8.0);
  // The node's own GSD pins it precisely via WD heartbeat analysis.
  const auto wd = h.kernel.fault_log().last("WD", FaultKind::kNetworkFailure);
  ASSERT_TRUE(wd.has_value());
  EXPECT_EQ(wd->node, server);
  EXPECT_EQ(wd->network, net::NetworkId{2});
  EXPECT_EQ(wd->recovered_at, wd->diagnosed_at);
  // Ring heartbeats over that network also go stale; the observing GSD
  // attributes the loss to one endpoint of the ring edge (it cannot tell a
  // peer NIC from its own — a documented ambiguity of link-level faults).
  const auto gsd = h.kernel.fault_log().last("GSD", FaultKind::kNetworkFailure);
  ASSERT_TRUE(gsd.has_value());
  EXPECT_TRUE(gsd->node == server || gsd->node == peer_server);
  EXPECT_EQ(gsd->network, net::NetworkId{2});
  EXPECT_EQ(gsd->recovered_at, gsd->diagnosed_at);
}

// Partition 1's server is 400 ms slow: its ring heartbeat reaches partition
// 0 late enough to start the predecessor probe but inside the 280 ms probe
// window, while the slowed probe reply misses it. The heartbeat voids the
// probe, so partition 1 is neither diagnosed nor removed.
TEST_F(GroupServiceTest, RingHeartbeatDuringProbeVoidsIt) {
  const auto& gsd = h.kernel.gsd(net::PartitionId{0});
  int probes = 0;
  h.cluster.fabric().set_drop_filter(
      [&](const net::Address& from, const net::Address&, const net::Message& m) {
        if (from == gsd.address() && m.type_id() == ProbeMsg::static_type_id()) {
          ++probes;
        }
        return false;
      });
  h.injector.slow_node(h.cluster.server_node(net::PartitionId{1}),
                       400 * sim::kMillisecond);
  h.run_s(10.0);

  EXPECT_GT(probes, 0);
  EXPECT_FALSE(h.kernel.fault_log().last("GSD").has_value());
  EXPECT_TRUE(gsd.view().contains(net::PartitionId{1}));
}

TEST_F(GroupServiceTest, ApplyingTheCurrentViewIsANoOp) {
  auto& gsd = h.kernel.gsd(net::PartitionId{1});
  const auto& peer = h.kernel.gsd(net::PartitionId{0});
  const MetaView current = gsd.view();
  const auto saved = gsd.counters().snapshots_saved;
  deliver_view(peer, gsd, current);
  EXPECT_EQ(gsd.counters().snapshots_saved, saved);
  EXPECT_EQ(gsd.view().serialize(), current.serialize());

  // Control: the same members under the next view id are a real change.
  MetaView next = current;
  ++next.view_id;
  deliver_view(peer, gsd, next);
  EXPECT_EQ(gsd.counters().snapshots_saved, saved + 1);
  EXPECT_EQ(gsd.view().view_id, next.view_id);
}

// A GSD persists its view through the runtime's coalescing mark_dirty():
// three views applied in one tick go out as one save at once and one
// trailing flush that carries the last of them. Checked on the wire, not
// in the store, which keeps whichever save arrives last.
TEST_F(GroupServiceTest, ViewsAppliedInOneTickGoOutAsAtMostTwoSaves) {
  auto& gsd = h.kernel.gsd(net::PartitionId{1});
  const auto& peer = h.kernel.gsd(net::PartitionId{0});
  std::vector<std::uint64_t> saved_views;
  h.cluster.fabric().set_drop_filter(
      [&](const net::Address& from, const net::Address&, const net::Message& m) {
        const auto* save = net::message_cast<CheckpointSaveMsg>(m);
        if (save != nullptr && from == gsd.address()) {
          saved_views.push_back(MetaView::deserialize(save->data.str()).view_id);
        }
        return false;
      });
  MetaView view = gsd.view();
  const std::uint64_t first = view.view_id + 1;
  for (int i = 0; i < 3; ++i) {
    ++view.view_id;
    deliver_view(peer, gsd, view);
  }
  h.run_s(1.0);
  h.cluster.fabric().set_drop_filter(nullptr);

  EXPECT_EQ(saved_views, (std::vector<std::uint64_t>{first, view.view_id}));
  EXPECT_EQ(gsd.view().view_id, view.view_id);
}

// The member that committed a removal keeps a tombstone for the removed
// incarnation. A later view that still lists it (a slow sender's) is trimmed
// on arrival, so the sender's bytes no longer describe the view kept: the
// save must carry the trimmed view's own bytes.
TEST_F(GroupServiceTest, TombstoneTrimmedViewIsSavedFromItsOwnBytes) {
  auto& committer = h.kernel.gsd(net::PartitionId{0});
  auto& victim = h.kernel.gsd(net::PartitionId{1});
  const MetaMember removed =
      committer.view().members[*committer.view().index_of(net::PartitionId{1})];
  h.injector.kill_daemon(victim);
  for (int i = 0; i < 400 && committer.view().contains(net::PartitionId{1}); ++i) {
    h.run(25 * sim::kMillisecond);
  }
  ASSERT_FALSE(committer.view().contains(net::PartitionId{1}));
  h.run(1 * sim::kMillisecond);

  MetaView stale = committer.view();
  ++stale.view_id;
  stale.members.push_back(removed);
  auto msg = std::make_shared<ViewChangeMsg>();
  msg->view = stale;
  msg->bytes = stale.serialize();
  std::vector<std::string> saves;
  h.cluster.fabric().set_drop_filter(
      [&](const net::Address& from, const net::Address&, const net::Message& m) {
        const auto* save = net::message_cast<CheckpointSaveMsg>(m);
        if (save != nullptr && from == committer.address()) {
          saves.push_back(save->data.str());
        }
        return false;
      });
  committer.deliver(net::Envelope{victim.address(), committer.address(),
                                  net::NetworkId{0}, std::move(msg)});
  h.run(1 * sim::kMillisecond);
  h.cluster.fabric().set_drop_filter(nullptr);

  EXPECT_EQ(committer.view().view_id, stale.view_id);
  EXPECT_FALSE(committer.view().contains(net::PartitionId{1}));
  ASSERT_EQ(saves.size(), 1u);
  EXPECT_EQ(saves[0], committer.view().serialize());
}

// A GSD restarted with no live peer recovers its old view, joins nobody and
// re-founds a singleton ring; its saves carry the view it holds at each one,
// never the bytes of a view it has replaced.
TEST_F(GroupServiceTest, RefoundedRingSavesTheViewItHolds) {
  auto& gsd = h.kernel.gsd(net::PartitionId{0});
  h.injector.crash_node(h.cluster.server_node(net::PartitionId{1}));
  h.injector.kill_daemon(gsd);
  std::vector<std::string> saved, held;
  h.cluster.fabric().set_drop_filter(
      [&](const net::Address& from, const net::Address&, const net::Message& m) {
        const auto* save = net::message_cast<CheckpointSaveMsg>(m);
        if (save != nullptr && from == gsd.address()) {
          saved.push_back(save->data.str());
          held.push_back(gsd.view().serialize());
        }
        return false;
      });
  gsd.start();
  h.run_s(30.0);
  h.cluster.fabric().set_drop_filter(nullptr);

  ASSERT_TRUE(gsd.joined());
  ASSERT_EQ(gsd.view().members.size(), 1u);
  ASSERT_FALSE(saved.empty());
  EXPECT_EQ(saved, held);
  EXPECT_EQ(saved.back(), gsd.view().serialize());
}

TEST_F(GroupServiceTest, MetaViewSurvivesDoubleFault) {
  // Crash two compute nodes at once; the ring (server-level) is unaffected
  // and both faults are diagnosed.
  const net::NodeId a = h.cluster.compute_nodes(net::PartitionId{0})[0];
  const net::NodeId b = h.cluster.compute_nodes(net::PartitionId{1})[0];
  h.injector.crash_node(a);
  h.injector.crash_node(b);
  h.run_s(12.0);
  EXPECT_EQ(h.kernel.gsd(net::PartitionId{0}).view().members.size(), 2u);
  std::size_t node_failures = 0;
  for (const auto& r : h.kernel.fault_log().records()) {
    if (r.component == "WD" && r.kind == FaultKind::kNodeFailure) ++node_failures;
  }
  EXPECT_EQ(node_failures, 2u);
}

TEST(GroupServiceRingTest, LargerRingFormsAndSurvivesMemberFailure) {
  cluster::ClusterSpec spec = small_cluster_spec();
  spec.partitions = 5;
  KernelHarness h(spec, fast_ft_params());
  h.run_s(5.0);

  for (std::uint32_t p = 0; p < 5; ++p) {
    EXPECT_EQ(h.kernel.gsd(net::PartitionId{p}).view().members.size(), 5u);
  }
  // Kill the GSD in the middle of the ring.
  h.injector.kill_daemon(h.kernel.gsd(net::PartitionId{2}));
  h.run_s(15.0);
  // Everyone converged on a view containing all five members again
  // (partition 2 rejoined after the in-place restart).
  for (std::uint32_t p = 0; p < 5; ++p) {
    EXPECT_EQ(h.kernel.gsd(net::PartitionId{p}).view().members.size(), 5u)
        << "partition " << p;
  }
  EXPECT_TRUE(h.kernel.gsd(net::PartitionId{2}).alive());
}

TEST(GroupServiceRingTest, EqualIdConflictingViewsConvergeInEitherOrder) {
  cluster::ClusterSpec spec = small_cluster_spec();
  spec.partitions = 3;
  KernelHarness h(spec, fast_ft_params());
  h.run_s(5.0);
  auto& a = h.kernel.gsd(net::PartitionId{0});
  auto& b = h.kernel.gsd(net::PartitionId{1});
  const auto& sender = h.kernel.gsd(net::PartitionId{2});

  // Same id, same size, different ring order: two concurrent founders.
  MetaView x = a.view();
  x.view_id += 10;
  ASSERT_EQ(x.members.size(), 3u);
  MetaView y = x;
  std::swap(y.members[1], y.members[2]);

  deliver_view(sender, a, x);
  deliver_view(sender, a, y);
  deliver_view(sender, b, y);
  deliver_view(sender, b, x);
  const std::string winner = std::min(x.serialize(), y.serialize());
  EXPECT_EQ(a.view().serialize(), winner);
  EXPECT_EQ(b.view().serialize(), winner);
}

// A view change is encoded once: every GSD that applies it unchanged saves
// the bytes the change carried (one buffer per view id), and every save still
// equals the view its sender holds. The bytes stay off the wire.
TEST(GroupServiceRingTest, GsdsApplyingAViewSaveOneSharedEncoding) {
  cluster::ClusterSpec spec = small_cluster_spec();
  spec.partitions = 5;
  KernelHarness h(spec, fast_ft_params());
  h.run_s(5.0);
  const std::uint64_t boot_view = h.kernel.gsd(net::PartitionId{0}).view().view_id;

  std::map<std::uint64_t, std::set<const char*>> buffers;  // view id -> data
  std::size_t mismatches = 0;
  h.cluster.fabric().set_drop_filter(
      [&](const net::Address& from, const net::Address&, const net::Message& m) {
        const auto* save = net::message_cast<CheckpointSaveMsg>(m);
        const auto* gsd =
            dynamic_cast<const GroupServiceDaemon*>(h.cluster.daemon_at(from));
        if (save == nullptr || gsd == nullptr) return false;
        if (save->data.str() != gsd->view().serialize()) ++mismatches;
        buffers[gsd->view().view_id].insert(save->data.str().data());
        return false;
      });
  h.injector.kill_daemon(h.kernel.gsd(net::PartitionId{2}));
  h.run_s(15.0);
  h.cluster.fabric().set_drop_filter(nullptr);

  EXPECT_EQ(mismatches, 0u);
  ASSERT_GE(buffers.size(), 2u);  // the removal and the rejoin
  for (const auto& [view_id, data] : buffers) {
    EXPECT_GT(view_id, boot_view);
    EXPECT_EQ(data.size(), 1u) << "view " << view_id;
  }
  for (std::uint32_t p = 0; p < 5; ++p) {
    EXPECT_EQ(h.kernel.gsd(net::PartitionId{p}).view().members.size(), 5u);
  }

  ViewChangeMsg msg;
  msg.view = h.kernel.gsd(net::PartitionId{0}).view();
  const std::size_t bare = msg.wire_size();
  msg.bytes = msg.view.serialize();
  EXPECT_EQ(msg.wire_size(), bare);
}

TEST(MetaViewTest, RingOrderAndRoles) {
  MetaView view;
  view.view_id = 3;
  for (std::uint32_t p = 0; p < 4; ++p) {
    view.members.push_back(MetaMember{
        net::PartitionId{p}, {net::NodeId{p * 10}, net::PortId{2}}, 0});
  }
  EXPECT_EQ(view.leader()->partition.value, 0u);
  EXPECT_EQ(view.princess()->partition.value, 1u);
  EXPECT_EQ(view.successor_of(net::PartitionId{3})->partition.value, 0u);
  EXPECT_EQ(view.predecessor_of(net::PartitionId{0})->partition.value, 3u);
  EXPECT_TRUE(view.remove(net::PartitionId{1}));
  EXPECT_FALSE(view.remove(net::PartitionId{1}));
  EXPECT_EQ(view.princess()->partition.value, 2u);  // next member takes over
}

TEST(MetaViewTest, SerializationRoundTrip) {
  MetaView view;
  view.view_id = 42;
  view.members.push_back(
      MetaMember{net::PartitionId{0}, {net::NodeId{0}, net::PortId{2}}, 0});
  view.members.push_back(
      MetaMember{net::PartitionId{3}, {net::NodeId{17}, net::PortId{2}}, 123456});
  const MetaView parsed = MetaView::deserialize(view.serialize());
  EXPECT_EQ(parsed.view_id, 42u);
  ASSERT_EQ(parsed.members.size(), 2u);
  EXPECT_EQ(parsed.members[1].partition.value, 3u);
  EXPECT_EQ(parsed.members[1].gsd.node.value, 17u);
  EXPECT_EQ(parsed.members[1].incarnation, 123456u);
}

TEST(MetaViewTest, DiffReportsChangedMembersInViewOrder) {
  MetaView old;
  old.members = {member(0, 0), member(1, 10), member(2, 20), member(3, 30),
                 member(4, 40)};
  MetaView next;
  // 0 and 2 unchanged, 3 re-incarnated, 6 new, 1 re-addressed, 4 removed.
  next.members = {member(0, 0), member(3, 30, 7), member(6, 60), member(1, 11),
                  member(2, 20)};
  const MetaViewDiff d = next.diff_from(old);
  EXPECT_EQ(ids(d.changed), (std::vector<std::uint32_t>{3, 6, 1}));
  EXPECT_EQ(d.changed[0].incarnation, 7u);
  EXPECT_EQ(d.changed[2].gsd.node, net::NodeId{11});
  EXPECT_EQ(ids(d.added), (std::vector<std::uint32_t>{6}));
  EXPECT_EQ(ids(d.removed), (std::vector<std::uint32_t>{4}));

  const MetaViewDiff same = old.diff_from(old);
  EXPECT_TRUE(same.changed.empty());
  EXPECT_TRUE(same.added.empty());
  EXPECT_TRUE(same.removed.empty());
}

TEST(MetaViewTest, DiffHandlesHighIdsAndAnEmptyOldView) {
  const MetaView empty;
  MetaView small;
  small.members = {member(1, 10)};
  MetaView big;
  big.members = {member(5, 50), member(1, 10), member(1000, 7)};

  const MetaViewDiff from_empty = big.diff_from(empty);
  EXPECT_EQ(ids(from_empty.changed), (std::vector<std::uint32_t>{5, 1, 1000}));
  EXPECT_EQ(ids(from_empty.added), (std::vector<std::uint32_t>{5, 1, 1000}));
  EXPECT_TRUE(from_empty.removed.empty());

  // Ids above any in the other view are looked up, not indexed past its end.
  const MetaViewDiff grown = big.diff_from(small);
  EXPECT_EQ(ids(grown.changed), (std::vector<std::uint32_t>{5, 1000}));
  EXPECT_EQ(ids(grown.added), (std::vector<std::uint32_t>{5, 1000}));
  EXPECT_TRUE(grown.removed.empty());
  const MetaViewDiff shrunk = small.diff_from(big);
  EXPECT_TRUE(shrunk.changed.empty());
  EXPECT_EQ(ids(shrunk.removed), (std::vector<std::uint32_t>{5, 1000}));

  EXPECT_EQ(ids(empty.diff_from(big).removed),
            (std::vector<std::uint32_t>{5, 1, 1000}));
}

TEST(MetaViewTest, DiffMatchesTheFirstEntryOfADuplicatedPartition) {
  MetaView old;
  old.members = {member(2, 20, 5), member(1, 10), member(2, 21, 9)};
  ASSERT_EQ(old.index_of(net::PartitionId{2}), 0u);

  MetaView first;
  first.members = {member(2, 20, 5)};
  EXPECT_TRUE(first.diff_from(old).changed.empty());
  EXPECT_EQ(ids(first.diff_from(old).removed), (std::vector<std::uint32_t>{1}));

  // Equal to the second entry only: index_of would not find it, so changed.
  MetaView second;
  second.members = {member(2, 21, 9)};
  EXPECT_EQ(ids(second.diff_from(old).changed), (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(second.diff_from(old).added.empty());
}

TEST(MetaViewTest, DeserializeEmptyAndMalformed) {
  EXPECT_TRUE(MetaView::deserialize("").members.empty());
  const MetaView v = MetaView::deserialize("7|bad,data");
  EXPECT_EQ(v.view_id, 7u);
  EXPECT_TRUE(v.members.empty());
}

TEST(SinglePartitionTest, SingletonClusterRunsWithoutMetaTraffic) {
  cluster::ClusterSpec spec = small_cluster_spec();
  spec.partitions = 1;
  KernelHarness h(spec, fast_ft_params());
  h.run_s(10.0);
  EXPECT_TRUE(h.kernel.gsd(net::PartitionId{0}).is_leader());
  EXPECT_TRUE(h.kernel.fault_log().records().empty());
}

}  // namespace
}  // namespace phoenix::kernel
