// PWS priority and walltime-limit tests.
#include <gtest/gtest.h>

#include "kernel_fixture.h"
#include "pws/pws.h"

namespace phoenix::pws {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

PwsConfig pool_of_everything(const cluster::Cluster& cluster,
                             SchedPolicy policy = SchedPolicy::kFifo) {
  PwsConfig config;
  PoolConfig pool;
  pool.name = "batch";
  pool.policy = policy;
  for (std::uint32_t p = 0; p < cluster.spec().partitions; ++p) {
    for (net::NodeId n : cluster.compute_nodes(net::PartitionId{p})) {
      pool.nodes.push_back(n);
    }
  }
  config.pools = {pool};
  return config;
}

SubmitRequest req(unsigned nodes, double seconds, int priority = 0,
                  double walltime_s = 0) {
  SubmitRequest r;
  r.user = "u";
  r.pool = "batch";
  r.nodes = nodes;
  r.duration = sim::from_seconds(seconds);
  r.priority = priority;
  r.walltime_limit = sim::from_seconds(walltime_s);
  return r;
}

class PwsPriorityTest : public ::testing::Test {
 protected:
  PwsPriorityTest()
      : h(small_cluster_spec(), fast_ft_params()),
        pws(h.kernel, pool_of_everything(h.cluster)) {
    h.run_s(1.0);
  }

  KernelHarness h;
  PwsSystem pws;
};

TEST_F(PwsPriorityTest, HigherPriorityJumpsTheQueue) {
  const JobId blocker = pws.submit(req(8, 30.0));   // submitted first
  const JobId normal = pws.submit(req(8, 30.0, 0));
  const JobId urgent = pws.submit(req(8, 30.0, 10));
  h.run_s(4.0);
  // All three were queued together; the urgent one must be picked first,
  // ahead of two earlier submissions.
  EXPECT_EQ(pws.scheduler().job(urgent)->state, JobState::kRunning);
  EXPECT_EQ(pws.scheduler().job(blocker)->state, JobState::kQueued);
  EXPECT_EQ(pws.scheduler().job(normal)->state, JobState::kQueued);
}

TEST_F(PwsPriorityTest, EqualPriorityKeepsFifoOrder) {
  const JobId first = pws.submit(req(8, 30.0, 3));
  const JobId second = pws.submit(req(8, 30.0, 3));
  h.run_s(4.0);
  EXPECT_EQ(pws.scheduler().job(first)->state, JobState::kRunning);
  EXPECT_EQ(pws.scheduler().job(second)->state, JobState::kQueued);
}

TEST_F(PwsPriorityTest, PriorityComposesWithSjf) {
  KernelHarness h2(small_cluster_spec(), fast_ft_params());
  PwsSystem pws2(h2.kernel, pool_of_everything(h2.cluster, SchedPolicy::kSjf));
  h2.run_s(1.0);
  pws2.submit(req(8, 10.0));
  const JobId long_urgent = pws2.scheduler().submit(req(8, 100.0, 5));
  const JobId short_normal = pws2.scheduler().submit(req(8, 5.0, 0));
  h2.run_s(13.0);
  // Priority dominates SJF: the long urgent job runs first.
  EXPECT_EQ(pws2.scheduler().job(long_urgent)->state, JobState::kRunning);
  EXPECT_EQ(pws2.scheduler().job(short_normal)->state, JobState::kQueued);
}

TEST_F(PwsPriorityTest, WalltimeExceededKillsJob) {
  const JobId runaway = pws.submit(req(2, 600.0, 0, /*walltime_s=*/5.0));
  h.run_s(3.0);
  ASSERT_EQ(pws.scheduler().job(runaway)->state, JobState::kRunning);
  // Keep the killed entries unreaped on the job's nodes.
  for (const net::NodeId node : pws.scheduler().job(runaway)->allocated) {
    h.kernel.detector(node).stop();
  }
  h.run_s(6.0);
  const Job* job = pws.scheduler().job(runaway);
  EXPECT_EQ(job->state, JobState::kTimedOut);
  EXPECT_EQ(pws.scheduler().stats().timed_out, 1u);
  // Its processes are really gone and its nodes free for others.
  for (const auto& [node_value, pid] : job->pids) {
    const auto* info = h.cluster.node(net::NodeId{node_value}).find_process(pid);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->state, cluster::ProcessState::kKilled);
  }
  const JobId next = pws.submit(req(8, 30.0));
  h.run_s(3.0);
  EXPECT_EQ(pws.scheduler().job(next)->state, JobState::kRunning);
}

TEST_F(PwsPriorityTest, WalltimeGenerousEnoughDoesNotFire) {
  const JobId fine = pws.submit(req(2, 4.0, 0, /*walltime_s=*/60.0));
  h.run_s(10.0);
  EXPECT_EQ(pws.scheduler().job(fine)->state, JobState::kCompleted);
  EXPECT_EQ(pws.scheduler().stats().timed_out, 0u);
}

TEST_F(PwsPriorityTest, PriorityAndWalltimeSurviveCheckpointRestart) {
  const JobId queued = pws.submit(req(8, 60.0, 7, 120.0));
  pws.submit(req(8, 60.0));  // occupies the pool? no — queued first by priority
  h.run_s(3.0);
  h.injector.kill_daemon(pws.scheduler());
  h.run_s(12.0);
  ASSERT_TRUE(pws.scheduler().alive());
  const Job* job = pws.scheduler().job(queued);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->priority, 7);
  EXPECT_EQ(job->walltime_limit, sim::from_seconds(120.0));
}

}  // namespace
}  // namespace phoenix::pws
