// Deep meta-group ring tests: the paper's §4.3 takeover chain ("In case of
// failure of Leader, other members of meta-group select Princess to take
// over it. If Princess fails, the next member to Princess will take over
// it. If one of the members fails, the member next to it will take over
// it."), tombstone semantics, and join ordering.
#include <gtest/gtest.h>

#include "kernel/group/leader_monitor.h"
#include "kernel_fixture.h"

namespace phoenix::kernel {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::fast_ft_params;

cluster::ClusterSpec ring5_spec() {
  cluster::ClusterSpec spec;
  spec.partitions = 5;
  spec.computes_per_partition = 2;
  spec.backups_per_partition = 1;
  return spec;
}

class RingTest : public ::testing::Test {
 protected:
  RingTest() : h(ring5_spec(), fast_ft_params()) { h.run_s(5.0); }

  net::PartitionId leader_partition() {
    for (std::uint32_t p = 0; p < 5; ++p) {
      if (h.kernel.gsd(net::PartitionId{p}).alive() &&
          h.kernel.gsd(net::PartitionId{p}).is_leader()) {
        return net::PartitionId{p};
      }
    }
    return net::PartitionId{};
  }

  KernelHarness h;
};

TEST_F(RingTest, LeaderTakeoverChainFollowsThePaper) {
  // Kill leaders one after another; leadership must pass to the Princess
  // each time, i.e. walk 0 -> 1 -> 2 in the original ring order.
  ASSERT_EQ(leader_partition(), net::PartitionId{0});

  h.injector.kill_daemon(h.kernel.gsd(net::PartitionId{0}));
  h.run_s(8.0);  // detect + takeover, before the dead one rejoins
  EXPECT_EQ(leader_partition(), net::PartitionId{1});

  h.run_s(20.0);  // partition 0's GSD restarts and rejoins at the tail
  EXPECT_EQ(leader_partition(), net::PartitionId{1});
  const auto& view = h.kernel.gsd(net::PartitionId{1}).view();
  ASSERT_EQ(view.members.size(), 5u);
  EXPECT_EQ(view.members.back().partition, net::PartitionId{0});  // tail

  h.injector.kill_daemon(h.kernel.gsd(net::PartitionId{1}));
  h.run_s(8.0);
  EXPECT_EQ(leader_partition(), net::PartitionId{2});
}

TEST_F(RingTest, PrincessFailurePromotesNextMember) {
  ASSERT_TRUE(h.kernel.gsd(net::PartitionId{1}).is_princess());
  h.injector.kill_daemon(h.kernel.gsd(net::PartitionId{1}));
  h.run_s(8.0);
  // Leader unchanged; the member next to the Princess becomes Princess.
  EXPECT_TRUE(h.kernel.gsd(net::PartitionId{0}).is_leader());
  EXPECT_TRUE(h.kernel.gsd(net::PartitionId{2}).is_princess());
}

TEST_F(RingTest, MiddleMemberFailureHandledByItsSuccessor) {
  // Partition 3's ring successor is partition 4; after killing 3, the
  // failure record must exist and 4 must have re-pointed its monitoring.
  h.injector.kill_daemon(h.kernel.gsd(net::PartitionId{3}));
  h.run_s(8.0);
  const auto record = h.kernel.fault_log().last("GSD");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->partition, net::PartitionId{3});
  // The surviving ring is 0,1,2,4: partition 4's predecessor is now 2.
  const auto& view = h.kernel.gsd(net::PartitionId{4}).view();
  EXPECT_EQ(view.predecessor_of(net::PartitionId{4})->partition,
            net::PartitionId{2});
}

TEST_F(RingTest, RejoinOrderIsJoinOrder) {
  // Kill partitions 2 and 3; they rejoin in recovery order at the tail.
  h.injector.kill_daemon(h.kernel.gsd(net::PartitionId{2}));
  h.run_s(15.0);
  h.injector.kill_daemon(h.kernel.gsd(net::PartitionId{3}));
  h.run_s(25.0);

  const auto& view = h.kernel.gsd(net::PartitionId{0}).view();
  ASSERT_EQ(view.members.size(), 5u);
  // Original order 0,1,4 preserved at the head; 2 rejoined before 3 died,
  // so the tail is ...,2,3.
  EXPECT_EQ(view.members[0].partition, net::PartitionId{0});
  EXPECT_EQ(view.members[1].partition, net::PartitionId{1});
  EXPECT_EQ(view.members[2].partition, net::PartitionId{4});
  EXPECT_EQ(view.members[3].partition, net::PartitionId{2});
  EXPECT_EQ(view.members[4].partition, net::PartitionId{3});
}

TEST_F(RingTest, TombstonedIncarnationCannotReenter) {
  auto& gsd2 = h.kernel.gsd(net::PartitionId{2});
  const std::uint64_t old_incarnation = gsd2.incarnation();
  h.injector.kill_daemon(gsd2);
  h.run_s(20.0);  // removed, restarted, rejoined

  // The rejoined instance has a strictly newer incarnation.
  EXPECT_GT(h.kernel.gsd(net::PartitionId{2}).incarnation(), old_incarnation);
  const auto& view = h.kernel.gsd(net::PartitionId{0}).view();
  const auto idx = view.index_of(net::PartitionId{2});
  ASSERT_TRUE(idx.has_value());
  EXPECT_GT(view.members[*idx].incarnation, old_incarnation);
}

TEST_F(RingTest, ViewIdsMonotonicallyIncrease) {
  const auto id_before = h.kernel.gsd(net::PartitionId{0}).view().view_id;
  h.injector.kill_daemon(h.kernel.gsd(net::PartitionId{4}));
  h.run_s(20.0);
  const auto id_after = h.kernel.gsd(net::PartitionId{0}).view().view_id;
  EXPECT_GT(id_after, id_before);  // removal + rejoin => at least +2
  // All live members agree on the same view id.
  for (std::uint32_t p = 0; p < 5; ++p) {
    EXPECT_EQ(h.kernel.gsd(net::PartitionId{p}).view().view_id, id_after)
        << "partition " << p;
  }
}

TEST_F(RingTest, RingHeartbeatsFollowTheRingEdges) {
  // Each member's ring traffic goes to its successor only: verify via
  // fabric byte accounting that meta heartbeats exist and the ring scales
  // as one heartbeat per member per interval (not all-to-all).
  h.cluster.fabric().reset_stats();
  h.run_s(20.0);  // 10 intervals at 2 s
  const auto stats = h.cluster.fabric().total_stats();
  ASSERT_TRUE(stats.bytes_by_type.contains("meta.ring_heartbeat"));
  // 5 members x 3 networks x ~10 intervals ~= 150 sends; all-to-all would
  // be ~600.
  const auto hb_bytes = stats.bytes_by_type.at("meta.ring_heartbeat");
  const auto per_msg = net::kWireHeaderBytes + 24;
  const auto msgs = hb_bytes / per_msg;
  EXPECT_GE(msgs, 120u);
  EXPECT_LE(msgs, 200u);
}

// --- scale --------------------------------------------------------------------

TEST(RingScaleTest, FourConsecutiveServerCrashesHealA256MemberRing) {
  constexpr std::uint32_t kPartitions = 256;
  cluster::ClusterSpec spec;
  spec.partitions = kPartitions;
  spec.computes_per_partition = 0;
  spec.backups_per_partition = 1;
  KernelHarness h(spec, fast_ft_params());
  LeaderInvariantMonitor monitor(h.kernel);
  h.run_s(6.0);

  // Four neighbours in the middle of the ring: each removal hands the
  // successor a predecessor that is dead too, and the migrated GSDs rejoin
  // at the tail in the order they recover.
  constexpr std::uint32_t kFirst = 100;
  for (std::uint32_t p = kFirst; p < kFirst + 4; ++p) {
    h.injector.crash_node(h.cluster.server_node(net::PartitionId{p}));
  }
  h.run_s(40.0);

  const std::string reference = h.kernel.gsd(net::PartitionId{0}).view().serialize();
  EXPECT_EQ(h.kernel.gsd(net::PartitionId{0}).view().members.size(), kPartitions);
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    const auto& gsd = h.kernel.gsd(net::PartitionId{p});
    ASSERT_TRUE(gsd.alive()) << "partition " << p;
    EXPECT_EQ(gsd.view().serialize(), reference) << "partition " << p;
  }
  for (std::uint32_t p = kFirst; p < kFirst + 4; ++p) {
    std::size_t records = 0;
    for (const auto& r : h.kernel.fault_log().records()) {
      if (r.component != "GSD" || r.partition != net::PartitionId{p}) continue;
      ++records;
      EXPECT_TRUE(r.recovered) << "partition " << p;
    }
    EXPECT_EQ(records, 1u) << "partition " << p;
  }
  EXPECT_EQ(monitor.violations(), 0u);
}

}  // namespace
}  // namespace phoenix::kernel
