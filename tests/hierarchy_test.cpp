// Hierarchical group management (FtParams::GroupTopology::zoned(n)): zone
// sub-rings, the top ring of zone leaders, promotion/displacement, per-ring
// epoch fencing, and the zone fault verbs. The golden-bytes test at the top
// pins the flat wire format the zoned refactor must never disturb.
#include <gtest/gtest.h>

#include <cstdint>

#include "kernel/group/leader_monitor.h"
#include "kernel/group/meta_group.h"
#include "kernel_fixture.h"

namespace phoenix::kernel {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

cluster::ClusterSpec nine_spec() {
  cluster::ClusterSpec spec;
  spec.partitions = 9;
  spec.computes_per_partition = 2;
  spec.backups_per_partition = 1;
  return spec;
}

cluster::ClusterSpec twelve_spec() {
  cluster::ClusterSpec spec;
  spec.partitions = 12;
  spec.computes_per_partition = 2;
  spec.backups_per_partition = 1;
  return spec;
}

kernel::FtParams zoned_params(std::uint32_t zone_size) {
  kernel::FtParams p = fast_ft_params();
  p.topology = FtParams::GroupTopology::zoned(zone_size);
  return p;
}

kernel::FtParams zoned_quorum_params(std::uint32_t zone_size) {
  kernel::FtParams p = zoned_params(zone_size);
  p.failover = FtParams::FailoverPolicy::quorum();
  return p;
}

// --- golden bytes: the flat wire format is frozen -----------------------------

TEST(MetaViewGoldenBytesTest, FlatEpochZeroViewSerializesToExactLegacyBytes) {
  // An epoch-0 view (everything the paper experiments checkpoint) must emit
  // EXACTLY the legacy byte sequence: "view_id|part,node,port,inc|...". No
  // epoch token, no scope token, nothing the zoned refactor introduced.
  MetaView v;
  v.view_id = 1;
  v.members.push_back({net::PartitionId{0}, {net::NodeId{0}, net::PortId{3}}, 0});
  v.members.push_back({net::PartitionId{1}, {net::NodeId{8}, net::PortId{3}}, 0});
  v.members.push_back({net::PartitionId{2}, {net::NodeId{16}, net::PortId{3}}, 7});
  EXPECT_EQ(v.serialize(), "1|0,0,3,0|1,8,3,0|2,16,3,7");

  // The widest fields: a 20-digit incarnation and the top port number.
  MetaView wide;
  wide.view_id = 9;
  wide.members.push_back(
      {net::PartitionId{4095}, {net::NodeId{8191}, net::PortId{65535}}, UINT64_MAX});
  EXPECT_EQ(wide.serialize(), "9|4095,8191,65535,18446744073709551615");

  // No members: the view id alone.
  MetaView empty;
  empty.view_id = 12;
  EXPECT_EQ(empty.serialize(), "12");

  const MetaView back = MetaView::deserialize("1|0,0,3,0|1,8,3,0|2,16,3,7");
  EXPECT_EQ(back.view_id, 1u);
  EXPECT_EQ(back.epoch, 0u);
  ASSERT_EQ(back.members.size(), 3u);
  EXPECT_EQ(back.members[2].incarnation, 7u);
}

TEST(MetaViewGoldenBytesTest, BootedFlatKernelCheckpointsLegacyBytes) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  h.run_s(5.0);
  auto& gsd = h.kernel.gsd(net::PartitionId{0});
  ASSERT_TRUE(gsd.joined());
  const std::string wire = gsd.view().serialize();
  // Legacy shape: no epoch token anywhere, and a clean round-trip.
  EXPECT_EQ(wire.find('@'), std::string::npos);
  const MetaView back = MetaView::deserialize(wire);
  EXPECT_EQ(back.view_id, gsd.view().view_id);
  EXPECT_EQ(back.members.size(), 2u);
}

// --- zone decomposition -------------------------------------------------------

TEST(ZoneTopologyTest, StridedAssignmentAndZoneRings) {
  const auto topo = FtParams::GroupTopology::zoned(3);
  const ZoneTopology z = ZoneTopology::from(topo, 9);
  EXPECT_EQ(z.num_zones, 3u);
  EXPECT_EQ(z.zone_of(net::PartitionId{4}), 1u);
  EXPECT_EQ(z.first_of(2), net::PartitionId{2});
  const auto members = z.zone_members(1);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0], net::PartitionId{1});
  EXPECT_EQ(members[1], net::PartitionId{4});
  EXPECT_EQ(members[2], net::PartitionId{7});
  EXPECT_EQ(z.next_in_zone(net::PartitionId{4}), net::PartitionId{7});
  EXPECT_EQ(z.next_in_zone(net::PartitionId{7}), net::PartitionId{1});  // wraps
}

TEST(HierarchyTest, ZonedBootFormsSubRingsAndTopRing) {
  KernelHarness h(nine_spec(), zoned_params(3));
  h.run_s(10.0);

  // Every GSD joined its zone's sub-ring of exactly 3 members.
  for (std::uint32_t p = 0; p < 9; ++p) {
    auto& gsd = h.kernel.gsd(net::PartitionId{p});
    ASSERT_TRUE(gsd.joined()) << p;
    EXPECT_TRUE(gsd.zoned());
    EXPECT_EQ(gsd.zone(), p % 3) << p;
    EXPECT_EQ(gsd.zone_count(), 3u);
    EXPECT_EQ(gsd.view().members.size(), 3u) << p;
    EXPECT_TRUE(gsd.view().contains(net::PartitionId{p})) << p;
  }

  // Boot-time zone leaders are the first partition of each zone; they — and
  // only they — sit on the top ring, with the cluster head leading it.
  for (std::uint32_t p = 0; p < 9; ++p) {
    auto& gsd = h.kernel.gsd(net::PartitionId{p});
    EXPECT_EQ(gsd.is_leader(), p < 3) << p;
    EXPECT_EQ(gsd.is_top_member(), p < 3) << p;
    EXPECT_EQ(gsd.is_top_leader(), p == 0) << p;
  }
  EXPECT_EQ(h.kernel.gsd(net::PartitionId{0}).top_view().members.size(), 3u);
}

TEST(HierarchyTest, FlatModeAliasesKeepMonitorsUniform) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  h.run_s(5.0);
  auto& head = h.kernel.gsd(net::PartitionId{0});
  EXPECT_FALSE(head.zoned());
  EXPECT_EQ(head.zone(), 0u);
  EXPECT_EQ(head.zone_count(), 1u);
  // In flat mode the single ring IS the top ring.
  EXPECT_EQ(head.is_top_leader(), head.is_leader());
  EXPECT_EQ(head.is_top_member(), head.joined());
  EXPECT_EQ(head.top_epoch(), head.meta_epoch());
}

// --- zone-local failure handling ----------------------------------------------

TEST(HierarchyTest, ZoneMemberCrashIsHandledInsideItsZone) {
  KernelHarness h(nine_spec(), zoned_quorum_params(3));
  LeaderInvariantMonitor monitor(h.kernel);
  h.run_s(10.0);

  // Partition 4 is a FOLLOWER of zone 1 ({1, 4, 7}); its server node dies.
  faults::Scenario s;
  s.crash_node(h.cluster.server_node(net::PartitionId{4}));
  h.play(s, 60.0);

  // Zone 1 removed and recovered the member (migration to the backup node);
  // its leader kept the seat.
  auto& z1_leader = h.kernel.gsd(net::PartitionId{1});
  EXPECT_TRUE(z1_leader.is_leader());
  EXPECT_EQ(z1_leader.view().members.size(), 3u);
  EXPECT_TRUE(h.kernel.gsd(net::PartitionId{4}).alive());
  EXPECT_TRUE(h.kernel.gsd(net::PartitionId{4}).joined());

  // The OTHER zones never saw view churn: their epochs are still the quorum
  // bootstrap value and their memberships are untouched.
  for (std::uint32_t p : {0u, 3u, 6u, 2u, 5u, 8u}) {
    EXPECT_EQ(h.kernel.gsd(net::PartitionId{p}).view().members.size(), 3u) << p;
    EXPECT_EQ(h.kernel.gsd(net::PartitionId{p}).meta_epoch(), 1u) << p;
  }
  // Zone 1 committed a quorum takeover of the dead member: epoch advanced.
  EXPECT_GE(z1_leader.meta_epoch(), 2u);
  EXPECT_EQ(monitor.violations(), 0u);

  // The node failure is journaled by the zone ring.
  const auto record = h.kernel.fault_log().last("GSD", FaultKind::kNodeFailure);
  ASSERT_TRUE(record.has_value());
  EXPECT_TRUE(record->recovered);
}

TEST(HierarchyTest, ZoneLeaderCrashPromotesPrincessOntoTopRing) {
  KernelHarness h(nine_spec(), zoned_quorum_params(3));
  h.kernel.cluster().metrics().set_enabled(true);
  LeaderInvariantMonitor monitor(h.kernel);
  h.run_s(10.0);

  // Zone 1's leader (partition 1) dies. Its Princess (partition 4) must win
  // the zone regroup, promote, and DISPLACE the stale zone-1 entry on the
  // top ring — with no instant of same-zone same-epoch double leadership.
  faults::Scenario s;
  s.crash_node(h.cluster.server_node(net::PartitionId{1}));
  h.play(s, 60.0);

  auto& promoted = h.kernel.gsd(net::PartitionId{4});
  EXPECT_TRUE(promoted.is_leader());
  EXPECT_TRUE(promoted.is_top_member());
  EXPECT_GE(promoted.meta_epoch(), 2u);

  // The cluster head is untouched and the top ring regained 3 members.
  auto& head = h.kernel.gsd(net::PartitionId{0});
  EXPECT_TRUE(head.is_top_leader());
  EXPECT_EQ(head.top_view().members.size(), 3u);
  EXPECT_TRUE(head.top_view().contains(net::PartitionId{4}));
  EXPECT_FALSE(head.top_view().contains(net::PartitionId{1}));

  // The split-brain invariant held per ring throughout the double regroup.
  EXPECT_EQ(monitor.violations(), 0u);
  EXPECT_EQ(monitor.ring_violations(), 0u);
  EXPECT_EQ(monitor.top_violations(), 0u);

  // The promotion was counted.
  const auto* promotions =
      h.kernel.cluster().metrics().find_counter("meta.zone.promotions");
  ASSERT_NE(promotions, nullptr);
  EXPECT_GE(promotions->value(), 1u);
}

TEST(HierarchyTest, TopLeaderCrashElectsNextZoneLeaderAsHead) {
  KernelHarness h(nine_spec(), zoned_quorum_params(3));
  LeaderInvariantMonitor monitor(h.kernel);
  h.run_s(10.0);

  // Partition 0 is both zone 0's leader and the cluster head. Killing its
  // node forces BOTH a zone-0 takeover (partition 3 promotes) and a top-ring
  // regroup (zone 1's leader, next in top join order, becomes head).
  faults::Scenario s;
  s.crash_node(h.cluster.server_node(net::PartitionId{0}));
  h.play(s, 60.0);

  auto& new_head = h.kernel.gsd(net::PartitionId{1});
  EXPECT_TRUE(new_head.is_top_leader());
  auto& z0_promoted = h.kernel.gsd(net::PartitionId{3});
  EXPECT_TRUE(z0_promoted.is_leader());
  EXPECT_TRUE(z0_promoted.is_top_member());
  EXPECT_EQ(new_head.top_view().members.size(), 3u);

  EXPECT_EQ(monitor.violations(), 0u);
  EXPECT_EQ(monitor.top_violations(), 0u);
  // The head seat was never vacant longer than one takeover.
  EXPECT_GT(monitor.samples(), 0u);

  // Both rings removed partition 0, but the top ring is membership-only:
  // zone 0's ring journals the one GSD record.
  std::size_t gsd_records = 0;
  for (const FaultRecord& record : h.kernel.fault_log().records()) {
    if (record.component == "GSD" && record.partition == net::PartitionId{0}) {
      ++gsd_records;
    }
  }
  EXPECT_EQ(gsd_records, 1u);
}

// --- zone fault verbs ---------------------------------------------------------

TEST(ZoneScenarioTest, CrashZoneKillsExactlyTheZoneNodes) {
  KernelHarness h(twelve_spec(), zoned_params(4));
  h.run_s(5.0);

  // 12 partitions at zone_size 4 -> 3 zones; zone 1 = {1, 4, 7, 10}.
  faults::Scenario s;
  s.crash_zone(h.kernel, 1);
  EXPECT_EQ(s.step_count(), 1u);
  h.play(s, 2.0);

  const auto& journal = h.injector.history();
  ASSERT_EQ(journal.size(), 4u);
  for (std::uint32_t p : {1u, 4u, 7u, 10u}) {
    EXPECT_FALSE(h.cluster.node(h.cluster.server_node(net::PartitionId{p})).alive())
        << p;
  }
  for (std::uint32_t p : {0u, 3u, 2u, 5u}) {
    EXPECT_TRUE(h.cluster.node(h.cluster.server_node(net::PartitionId{p})).alive())
        << p;
  }
}

TEST(ZoneScenarioTest, WholeZoneDeathLeavesOtherZonesUndisturbed) {
  KernelHarness h(twelve_spec(), zoned_quorum_params(4));
  LeaderInvariantMonitor monitor(h.kernel);
  h.run_s(10.0);

  faults::Scenario s;
  s.crash_zone(h.kernel, 1);
  h.play(s, 90.0);

  // Zones 0 and 2 never churned; the surviving top ring has a leader.
  for (std::uint32_t p : {0u, 3u, 6u, 9u, 2u, 5u, 8u, 11u}) {
    EXPECT_TRUE(h.kernel.gsd(net::PartitionId{p}).joined()) << p;
    EXPECT_EQ(h.kernel.gsd(net::PartitionId{p}).view().members.size(), 4u) << p;
  }
  EXPECT_TRUE(h.kernel.gsd(net::PartitionId{0}).is_top_leader());
  EXPECT_EQ(monitor.violations(), 0u);
  EXPECT_EQ(monitor.top_violations(), 0u);
}

TEST(ZoneScenarioTest, PartitionZoneBlackholesOnlyCrossZoneLinks) {
  KernelHarness h(twelve_spec(), zoned_params(4));
  h.run_s(5.0);

  faults::Scenario s;
  s.partition_zone(h.kernel, 2);
  EXPECT_EQ(s.step_count(), 1u);
  h.play(s, 1.0);
  // 4 zone nodes x (total - 4) outside nodes x 2 directions.
  const std::size_t outside = h.cluster.node_count() - 4;
  EXPECT_EQ(h.injector.history().size(), 4 * outside * 2);

  s = faults::Scenario{};
  s.heal_zone(h.kernel, 2);
  h.play(s, 1.0);
  EXPECT_EQ(h.injector.history().size(), 2 * 4 * outside * 2);
}

// --- per-ring epoch fencing ---------------------------------------------------

TEST(TopRingFencingTest, ZoneEpochsFenceIndependently) {
  KernelHarness h(nine_spec(), zoned_quorum_params(3));
  LeaderInvariantMonitor monitor(h.kernel);
  h.run_s(10.0);

  // A takeover in zone 1 bumps ONLY zone 1's epoch; zones 0 and 2 keep the
  // bootstrap epoch — their rings were never asked to regroup, so their
  // fencing watermarks must not move either.
  faults::Scenario s;
  s.crash_node(h.cluster.server_node(net::PartitionId{1}));
  h.play(s, 60.0);

  EXPECT_GE(h.kernel.gsd(net::PartitionId{4}).meta_epoch(), 2u);
  for (std::uint32_t p : {0u, 3u, 6u, 2u, 5u, 8u}) {
    EXPECT_EQ(h.kernel.gsd(net::PartitionId{p}).meta_epoch(), 1u) << p;
  }
  EXPECT_EQ(monitor.violations(), 0u);
}

// --- churn aggregation --------------------------------------------------------

TEST(HierarchyTest, ZoneLeaderSummarizesChurnIntoAggregatedEvents) {
  KernelHarness h(nine_spec(), zoned_quorum_params(3));
  h.run_s(10.0);

  // A member loss + its recovery are two view changes in zone 1; the zone
  // leader flushes them as aggregated "meta.zone.churn" events rather than
  // per-member broadcasts to every partition.
  faults::Scenario s;
  s.crash_node(h.cluster.server_node(net::PartitionId{7}));
  h.play(s, 60.0);

  EXPECT_GE(h.kernel.gsd(net::PartitionId{1}).zone_churn_events(), 1u);
  // Zones that saw no churn emitted nothing.
  EXPECT_EQ(h.kernel.gsd(net::PartitionId{0}).zone_churn_events(), 0u);
  EXPECT_EQ(h.kernel.gsd(net::PartitionId{2}).zone_churn_events(), 0u);
}

}  // namespace
}  // namespace phoenix::kernel
