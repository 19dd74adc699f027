// Batched-vs-sequential equivalence: the same tenant trace pushed through
// the SubmissionGateway (batch RPCs, coalesced checkpoints, incremental
// passes) must land every job in the same final state with the same
// per-user usage as one-by-one direct submission. Also covers the walltime
// expiry heap: exceeded jobs are killed, and a requeued job's limit is
// measured from its relaunch (stale heap entries are revalidated away).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernel_fixture.h"
#include "pws/gateway.h"
#include "pws/pws.h"
#include "workload/tenant_load.h"

namespace phoenix::pws {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

PwsConfig one_pool_config(const cluster::Cluster& cluster) {
  PwsConfig config;
  PoolConfig pool;
  pool.name = "batch";
  pool.policy = SchedPolicy::kFifo;
  for (std::uint32_t p = 0; p < cluster.spec().partitions; ++p) {
    for (net::NodeId n : cluster.compute_nodes(net::PartitionId{p})) {
      pool.nodes.push_back(n);
    }
  }
  config.pools = {pool};
  return config;
}

workload::TenantLoadParams trace_params() {
  workload::TenantLoadParams p;
  // Dense enough that a 10 ms gateway window holds several arrivals (the
  // coalescing under test), short enough that 8 nodes drain the backlog.
  p.tenant_count = 12;
  p.base_rate = 200.0;
  p.horizon = 4 * sim::kSecond;
  p.flashes = {{1 * sim::kSecond, 2 * sim::kSecond, 5.0}};
  p.mean_duration_s = 0.04;
  p.min_duration_s = 0.01;
  p.max_nodes = 2;
  p.seed = 42;
  return p;
}

SubmitRequest request_of(const workload::TenantEvent& ev) {
  SubmitRequest r;
  r.user = workload::tenant_name(ev.tenant);
  r.pool = "batch";
  r.nodes = ev.nodes;
  r.duration = ev.duration;
  return r;
}

struct TraceOutcome {
  std::map<std::string, unsigned> jobs_per_user;
  std::map<std::string, double> usage;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t timed_out = 0;
  bool all_terminal_completed = true;
};

TraceOutcome outcome_of(const PwsScheduler& sched) {
  TraceOutcome out;
  for (const auto& [id, job] : sched.jobs()) {
    ++out.jobs_per_user[job.user];
    if (job.state != JobState::kCompleted) out.all_terminal_completed = false;
  }
  out.usage = sched.user_usage();
  out.completed = sched.stats().completed;
  out.failed = sched.stats().failed;
  out.timed_out = sched.stats().timed_out;
  return out;
}

// Runs the trace with direct per-job submission on the default config
// (checkpoints coalesced per tick, no admission).
TraceOutcome run_sequential(const std::vector<workload::TenantEvent>& events) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsSystem pws(h.kernel, one_pool_config(h.cluster));
  h.run_s(1.0);

  auto& engine = h.cluster.engine();
  for (const auto& ev : events) {
    engine.schedule_after(ev.arrival, [&pws, ev] { pws.submit(request_of(ev)); });
  }
  h.run_s(sim::to_seconds(trace_params().horizon) + 20.0);
  return outcome_of(pws.scheduler());
}

// Runs the same trace through the gateway on the batched config
// (coalesced checkpoints, batch RPCs, incremental passes).
TraceOutcome run_batched(const std::vector<workload::TenantEvent>& events) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsConfig config = one_pool_config(h.cluster);
  config.checkpoint_interval = 10 * sim::kMillisecond;
  PwsSystem pws(h.kernel, config);
  h.run_s(1.0);

  GatewayConfig gw;
  gw.scheduler = pws.scheduler().address();
  SubmissionGateway gateway(
      h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[0], gw);

  auto& engine = h.cluster.engine();
  for (const auto& ev : events) {
    engine.schedule_after(ev.arrival,
                          [&gateway, ev] { gateway.submit(request_of(ev)); });
  }
  h.run_s(sim::to_seconds(trace_params().horizon) + 20.0);

  EXPECT_EQ(gateway.stats().accepted, events.size());
  EXPECT_EQ(gateway.backlog(), 0u);
  EXPECT_EQ(gateway.inflight(), 0u);
  // The window actually coalesced: far fewer wire batches than jobs.
  EXPECT_LT(gateway.stats().batches_sent, events.size() / 2);
  return outcome_of(pws.scheduler());
}

TEST(PwsBatchEquivalenceTest, GatewayTraceMatchesSequentialSubmission) {
  const auto events = workload::generate_tenant_load(trace_params());
  ASSERT_GT(events.size(), 50u);

  const TraceOutcome seq = run_sequential(events);
  const TraceOutcome bat = run_batched(events);

  // Every job reaches the same terminal state in both runs.
  EXPECT_EQ(seq.completed, events.size());
  EXPECT_EQ(bat.completed, seq.completed);
  EXPECT_EQ(bat.failed, 0u);
  EXPECT_EQ(bat.timed_out, 0u);
  EXPECT_TRUE(seq.all_terminal_completed);
  EXPECT_TRUE(bat.all_terminal_completed);

  // Identical per-user job counts and fairness shares (accumulated usage).
  EXPECT_EQ(bat.jobs_per_user, seq.jobs_per_user);
  ASSERT_EQ(bat.usage.size(), seq.usage.size());
  for (const auto& [user, seconds] : seq.usage) {
    auto it = bat.usage.find(user);
    ASSERT_NE(it, bat.usage.end()) << user;
    EXPECT_NEAR(it->second, seconds, 1e-9) << user;
  }
}

SubmitRequest req(const std::string& user, unsigned nodes, double seconds,
                  double walltime_s = 0.0) {
  SubmitRequest r;
  r.user = user;
  r.pool = "batch";
  r.nodes = nodes;
  r.duration = sim::from_seconds(seconds);
  r.walltime_limit = sim::from_seconds(walltime_s);
  return r;
}

class PwsWalltimeTest : public ::testing::Test {
 protected:
  PwsWalltimeTest()
      : h(small_cluster_spec(), fast_ft_params()),
        pws(h.kernel, one_pool_config(h.cluster)) {
    h.run_s(1.0);
  }

  KernelHarness h;
  PwsSystem pws;
};

TEST_F(PwsWalltimeTest, ExceededWalltimeKillsJob) {
  const JobId hog = pws.submit(req("hog", 1, 30.0, 2.0));
  const JobId ok = pws.submit(req("ok", 1, 1.0, 10.0));
  h.run_s(5.0);

  EXPECT_EQ(pws.scheduler().job(hog)->state, JobState::kTimedOut);
  EXPECT_EQ(pws.scheduler().job(ok)->state, JobState::kCompleted);
  EXPECT_EQ(pws.scheduler().stats().timed_out, 1u);
}

TEST_F(PwsWalltimeTest, WalltimeMeasuredFromRelaunchAfterRequeue) {
  // 2 s of work under a 2.5 s limit: comfortably within walltime — unless a
  // stale expiry entry from the first launch survives the requeue. The node
  // crash pushes the finish past the FIRST launch's expiry time, so a heap
  // entry that is not revalidated against the new started_at would kill it.
  const JobId id = pws.submit(req("alice", 1, 2.0, 2.5));
  h.run_s(1.0);
  const Job* job = pws.scheduler().job(id);
  ASSERT_EQ(job->state, JobState::kRunning);

  h.injector.crash_node(job->allocated[0]);
  h.run_s(15.0);  // detection + requeue + relaunch + full 2 s of work

  job = pws.scheduler().job(id);
  EXPECT_EQ(job->requeues, 1u);
  EXPECT_EQ(job->state, JobState::kCompleted);
  EXPECT_EQ(pws.scheduler().stats().timed_out, 0u);
  EXPECT_EQ(pws.scheduler().stats().requeued, 1u);
}

}  // namespace
}  // namespace phoenix::pws
