// PWS job-management tests: submission, policies, multi-pool leasing,
// event-driven failure handling, security integration, scheduler HA.
#include "pws/pws.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "kernel/bulletin/data_bulletin.h"
#include "kernel/checkpoint/checkpoint_msgs.h"
#include "kernel/ppm/process_manager.h"
#include "kernel_fixture.h"
#include "test_client.h"

namespace phoenix::pws {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::TestClient;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

PwsConfig one_pool_config(const cluster::Cluster& cluster,
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

SubmitRequest req(const std::string& user, unsigned nodes, double seconds,
                  const std::string& pool = "batch") {
  SubmitRequest r;
  r.user = user;
  r.pool = pool;
  r.nodes = nodes;
  r.duration = sim::from_seconds(seconds);
  return r;
}

class PwsTest : public ::testing::Test {
 protected:
  PwsTest()
      : h(small_cluster_spec(), fast_ft_params()),
        pws(h.kernel, one_pool_config(h.cluster)) {
    h.run_s(1.0);
  }

  KernelHarness h;
  PwsSystem pws;
};

TEST_F(PwsTest, SubmitRunsAndCompletes) {
  const JobId id = pws.submit(req("alice", 2, 5.0));
  h.run_s(3.0);
  const Job* job = pws.scheduler().job(id);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->state, JobState::kRunning);
  EXPECT_EQ(job->allocated.size(), 2u);

  h.run_s(10.0);
  job = pws.scheduler().job(id);
  EXPECT_EQ(job->state, JobState::kCompleted);
  EXPECT_EQ(pws.scheduler().stats().completed, 1u);
}

TEST_F(PwsTest, UnknownPoolRejected) {
  const JobId id = pws.submit(req("alice", 1, 1.0, "no-such-pool"));
  EXPECT_EQ(pws.scheduler().job(id)->state, JobState::kRejected);
  EXPECT_EQ(pws.scheduler().stats().rejected, 1u);
}

TEST_F(PwsTest, FifoOrderPreserved) {
  // 8 compute nodes total; each job takes all of them, so they serialize.
  const JobId a = pws.submit(req("u1", 8, 5.0));
  const JobId b = pws.submit(req("u2", 8, 5.0));
  h.run_s(3.0);
  EXPECT_EQ(pws.scheduler().job(a)->state, JobState::kRunning);
  EXPECT_EQ(pws.scheduler().job(b)->state, JobState::kQueued);
  h.run_s(7.0);
  EXPECT_EQ(pws.scheduler().job(a)->state, JobState::kCompleted);
  EXPECT_EQ(pws.scheduler().job(b)->state, JobState::kRunning);
}

TEST_F(PwsTest, JobsNeverShareNodes) {
  const JobId a = pws.submit(req("u1", 5, 20.0));
  const JobId b = pws.submit(req("u2", 3, 20.0));
  h.run_s(5.0);
  const Job* ja = pws.scheduler().job(a);
  const Job* jb = pws.scheduler().job(b);
  ASSERT_EQ(ja->state, JobState::kRunning);
  ASSERT_EQ(jb->state, JobState::kRunning);
  for (net::NodeId na : ja->allocated) {
    for (net::NodeId nb : jb->allocated) {
      EXPECT_NE(na, nb);
    }
  }
}

TEST_F(PwsTest, NodeFailureRequeuesJob) {
  const JobId id = pws.submit(req("alice", 2, 120.0));
  h.run_s(3.0);
  const Job* job = pws.scheduler().job(id);
  ASSERT_EQ(job->state, JobState::kRunning);
  const net::NodeId victim = job->allocated[0];

  h.injector.crash_node(victim);
  h.run_s(15.0);  // detection (2 s hb) + diagnosis + event + requeue + restart

  job = pws.scheduler().job(id);
  EXPECT_EQ(job->requeues, 1u);
  EXPECT_EQ(job->state, JobState::kRunning);  // restarted on healthy nodes
  for (net::NodeId n : job->allocated) {
    EXPECT_NE(n, victim);
    EXPECT_TRUE(h.cluster.node(n).alive());
  }
  EXPECT_EQ(pws.scheduler().stats().requeued, 1u);
}

TEST_F(PwsTest, RequeueBudgetExhaustedFailsJob) {
  auto& sched = pws.scheduler();
  const JobId id = sched.submit(req("alice", 1, 600.0));
  for (unsigned attempt = 0; attempt <= 2; ++attempt) {
    h.run_s(5.0);
    const Job* job = sched.job(id);
    ASSERT_EQ(job->state, JobState::kRunning) << "attempt " << attempt;
    h.injector.crash_node(job->allocated[0]);
    h.run_s(15.0);
  }
  EXPECT_EQ(sched.job(id)->state, JobState::kFailed);
  EXPECT_EQ(sched.stats().failed, 1u);
}

TEST_F(PwsTest, CancelQueuedAndRunning) {
  const JobId running = pws.submit(req("u", 8, 100.0));
  const JobId queued = pws.submit(req("u", 8, 100.0));
  h.run_s(3.0);
  EXPECT_TRUE(pws.scheduler().cancel(queued));
  EXPECT_EQ(pws.scheduler().job(queued)->state, JobState::kCancelled);
  EXPECT_TRUE(pws.scheduler().cancel(running));
  EXPECT_EQ(pws.scheduler().job(running)->state, JobState::kCancelled);
  EXPECT_FALSE(pws.scheduler().cancel(running));  // already terminal
  // Nodes freed for later work.
  h.run_s(2.0);
  const JobId next = pws.submit(req("u", 8, 50.0));
  h.run_s(3.0);
  EXPECT_EQ(pws.scheduler().job(next)->state, JobState::kRunning);
}

TEST(PwsPolicyTest, SjfRunsShortJobsFirst) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsSystem pws(h.kernel, one_pool_config(h.cluster, SchedPolicy::kSjf));
  h.run_s(1.0);
  // Occupy the whole pool so ordering is decided while queued.
  pws.submit(req("u", 8, 4.0));
  const JobId slow = pws.submit(req("u", 8, 100.0));
  const JobId fast = pws.submit(req("u", 8, 5.0));
  h.run_s(8.0);  // first job done; SJF must pick `fast` over `slow`
  EXPECT_EQ(pws.scheduler().job(fast)->state, JobState::kRunning);
  EXPECT_EQ(pws.scheduler().job(slow)->state, JobState::kQueued);
}

TEST(PwsPolicyTest, FairShareFavorsLightUsers) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsSystem pws(h.kernel, one_pool_config(h.cluster, SchedPolicy::kFairShare));
  h.run_s(1.0);
  // heavy-user burns node-seconds first.
  pws.submit(req("heavy", 8, 6.0));
  h.run_s(8.0);
  ASSERT_GT(pws.scheduler().user_usage().at("heavy"), 0.0);
  // Both users queue whole-machine jobs at once; the light user must be
  // ordered ahead of the heavy one despite submitting later.
  const JobId heavy2 = pws.submit(req("heavy", 8, 5.0));
  const JobId light = pws.submit(req("light", 8, 5.0));
  h.run_s(4.0);
  EXPECT_EQ(pws.scheduler().job(light)->state, JobState::kRunning);
  EXPECT_EQ(pws.scheduler().job(heavy2)->state, JobState::kQueued);
  h.run_s(20.0);
  EXPECT_LT(pws.scheduler().job(light)->started_at,
            pws.scheduler().job(heavy2)->started_at);
}

TEST(PwsPolicyTest, BackfillFillsHolesWithoutDelayingHead) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsSystem pws(h.kernel, one_pool_config(h.cluster, SchedPolicy::kBackfill));
  h.run_s(1.0);
  // 8 nodes. Job A takes 6 for 20 s. Head-of-queue B needs 8 (blocked).
  // C needs 2 nodes for 5 s: fits in the hole and ends before A frees B.
  pws.submit(req("u", 6, 20.0));
  const JobId blocked_head = pws.submit(req("u", 8, 10.0));
  const JobId filler = pws.submit(req("u", 2, 5.0));
  h.run_s(4.0);
  EXPECT_EQ(pws.scheduler().job(filler)->state, JobState::kRunning)
      << "backfill should start the small job in the hole";
  EXPECT_EQ(pws.scheduler().job(blocked_head)->state, JobState::kQueued);

  // A long filler that WOULD delay the head must not start.
  const JobId bad_filler = pws.submit(req("u", 2, 500.0));
  h.run_s(4.0);
  EXPECT_EQ(pws.scheduler().job(bad_filler)->state, JobState::kQueued);
}

TEST(PwsLeasingTest, IdleNodesLeaseAcrossPoolsAndReturn) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  // Two pools of 4 nodes each.
  PwsConfig config;
  PoolConfig pool_a, pool_b;
  pool_a.name = "alpha";
  pool_b.name = "beta";
  pool_a.nodes = h.cluster.compute_nodes(net::PartitionId{0});
  pool_b.nodes = h.cluster.compute_nodes(net::PartitionId{1});
  config.pools = {pool_a, pool_b};
  PwsSystem pws(h.kernel, config);
  h.run_s(1.0);

  // A 6-node job in alpha exceeds its 4 owned nodes; beta is idle.
  const JobId big = pws.submit(req("alice", 6, 5.0, "alpha"));
  h.run_s(3.0);
  const Job* job = pws.scheduler().job(big);
  ASSERT_EQ(job->state, JobState::kRunning);
  std::size_t borrowed = 0;
  for (net::NodeId n : job->allocated) {
    if (pws.scheduler().is_leased(n)) ++borrowed;
  }
  EXPECT_EQ(borrowed, 2u);
  EXPECT_GE(pws.scheduler().stats().leases_granted, 2u);

  // After completion the leases return to beta.
  h.run_s(10.0);
  EXPECT_EQ(pws.scheduler().job(big)->state, JobState::kCompleted);
  for (net::NodeId n : pool_b.nodes) {
    EXPECT_FALSE(pws.scheduler().is_leased(n));
    EXPECT_EQ(pws.scheduler().effective_pool(n), "beta");
  }
}

TEST(PwsLeasingTest, BusyOwnerDoesNotLend) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsConfig config;
  PoolConfig pool_a, pool_b;
  pool_a.name = "alpha";
  pool_b.name = "beta";
  pool_a.nodes = h.cluster.compute_nodes(net::PartitionId{0});
  pool_b.nodes = h.cluster.compute_nodes(net::PartitionId{1});
  config.pools = {pool_a, pool_b};
  PwsSystem pws(h.kernel, config);
  h.run_s(1.0);

  // Beta has its own queued demand: it must refuse to lend.
  pws.submit(req("bob", 4, 30.0, "beta"));
  const JobId beta_waiting = pws.submit(req("bob", 4, 30.0, "beta"));
  const JobId alpha_big = pws.submit(req("alice", 6, 30.0, "alpha"));
  h.run_s(5.0);
  EXPECT_EQ(pws.scheduler().job(alpha_big)->state, JobState::kQueued);
  EXPECT_EQ(pws.scheduler().job(beta_waiting)->state, JobState::kQueued);
  EXPECT_EQ(pws.scheduler().stats().leases_granted, 0u);
}

TEST(PwsSecurityTest, UnauthorizedSubmissionRejected) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  auto config = one_pool_config(h.cluster);
  config.use_security = true;
  PwsSystem pws(h.kernel, config);
  auto& security = h.kernel.security();
  security.add_user("alice", "pw", {"scientist"});
  security.grant("scientist", "job.submit", "pool/batch");
  security.add_user("mallory", "pw2", {"guest"});
  h.run_s(1.0);

  TestClient client(h.cluster, net::NodeId{3});
  auto submit = [&](const std::string& user, const std::string& secret,
                    std::uint64_t rid) {
    // Authenticate directly (local API), then submit over messages.
    auto token = security.authenticate(user, secret);
    ASSERT_TRUE(token.has_value());
    auto msg = std::make_shared<PwsSubmitMsg>();
    msg->request = req(user, 1, 5.0);
    msg->token = *token;
    msg->reply_to = client.address();
    msg->request_id = rid;
    client.send_any(pws.scheduler().address(), msg);
  };

  submit("alice", "pw", 1);
  submit("mallory", "pw2", 2);
  h.run_s(3.0);

  const auto replies = client.of_type<PwsSubmitReplyMsg>();
  ASSERT_EQ(replies.size(), 2u);
  bool alice_ok = false, mallory_rejected = false;
  for (const auto* r : replies) {
    if (r->request_id == 1 && r->accepted) alice_ok = true;
    if (r->request_id == 2 && !r->accepted) mallory_rejected = true;
  }
  EXPECT_TRUE(alice_ok);
  EXPECT_TRUE(mallory_rejected);
  EXPECT_EQ(pws.scheduler().stats().rejected, 1u);
}

// A lost authorization reply rejects the submission instead of leaving the
// job authorizing forever and the submitter unanswered.
TEST(PwsSecurityTest, UnansweredAuthorizationRejects) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  auto config = one_pool_config(h.cluster);
  config.use_security = true;
  PwsSystem pws(h.kernel, config);
  auto& security = h.kernel.security();
  security.add_user("alice", "pw", {"scientist"});
  security.grant("scientist", "job.submit", "pool/batch");
  h.run_s(1.0);
  h.cluster.fabric().set_drop_filter(
      [](const net::Address&, const net::Address&, const net::Message& m) {
        return m.type_id() == kernel::AuthzReplyMsg::static_type_id();
      });

  TestClient client(h.cluster, net::NodeId{3});
  auto msg = std::make_shared<PwsSubmitMsg>();
  msg->request = req("alice", 1, 5.0);
  msg->token = *security.authenticate("alice", "pw");
  msg->reply_to = client.address();
  msg->request_id = 1;
  client.send_any(pws.scheduler().address(), msg);
  h.run_s(10.0);

  const auto* reply = client.last_of_type<PwsSubmitReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_FALSE(reply->accepted);
  EXPECT_EQ(pws.scheduler().job(reply->job_id)->state, JobState::kRejected);
  EXPECT_EQ(pws.scheduler().stats().rejected, 1u);
}

/// Sends `request` as a per-job submission authorized with its user's
/// token (password "pw").
void send_authorized(TestClient& client, kernel::SecurityService& security,
                     const PwsScheduler& scheduler, const SubmitRequest& request,
                     std::uint64_t request_id) {
  auto msg = std::make_shared<PwsSubmitMsg>();
  msg->request = request;
  msg->token = *security.authenticate(request.user, "pw");
  msg->reply_to = client.address();
  msg->request_id = request_id;
  client.send_any(scheduler.address(), msg);
}

// An authorized submission keeps every field of its request: the walltime
// limit ends the capped job, and the after_ok gate holds the dependent
// while its dependency still runs.
TEST(PwsSecurityTest, AuthorizedJobKeepsLimitsAndDependency) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  auto config = one_pool_config(h.cluster);
  config.use_security = true;
  PwsSystem pws(h.kernel, config);
  auto& security = h.kernel.security();
  security.add_user("alice", "pw", {"scientist"});
  security.grant("scientist", "job.submit", "pool/batch");
  h.run_s(1.0);

  TestClient client(h.cluster, net::NodeId{3});
  std::uint64_t request_id = 0;
  const auto submit = [&](const SubmitRequest& request) {
    send_authorized(client, security, pws.scheduler(), request, ++request_id);
    h.run_s(1.0);
    const auto* reply = client.last_of_type<PwsSubmitReplyMsg>();
    EXPECT_TRUE(reply != nullptr && reply->request_id == request_id &&
                reply->accepted);
    return reply == nullptr ? JobId{0} : reply->job_id;
  };
  SubmitRequest capped = req("alice", 1, 30.0);
  capped.walltime_limit = 2 * sim::kSecond;
  const JobId capped_id = submit(capped);
  SubmitRequest dependency = req("alice", 1, 10.0);
  dependency.priority = 3;
  dependency.arch = "x86_64";
  const JobId dependency_id = submit(dependency);
  SubmitRequest gated = req("alice", 1, 1.0);
  gated.after_ok = dependency_id;
  const JobId gated_id = submit(gated);
  h.run_s(2.0);

  const PwsScheduler& sched = pws.scheduler();
  ASSERT_NE(sched.job(capped_id), nullptr);
  ASSERT_NE(sched.job(dependency_id), nullptr);
  ASSERT_NE(sched.job(gated_id), nullptr);
  EXPECT_EQ(sched.job(capped_id)->state, JobState::kTimedOut);
  EXPECT_EQ(sched.job(dependency_id)->state, JobState::kRunning);
  EXPECT_EQ(sched.job(dependency_id)->priority, 3);
  EXPECT_EQ(sched.job(dependency_id)->arch, "x86_64");
  EXPECT_EQ(sched.job(gated_id)->state, JobState::kQueued);
  EXPECT_EQ(sched.job(gated_id)->after_ok, dependency_id);
}

/// Submits one authorized job, cancels it while its authorization is in
/// flight, lets the verdict (allowed) arrive, and checks that the job
/// stays cancelled and its submitter is told so.
void expect_cancel_during_authorization_sticks(bool retain_terminal_jobs) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  auto config = one_pool_config(h.cluster);
  config.use_security = true;
  config.retain_terminal_jobs = retain_terminal_jobs;
  PwsSystem pws(h.kernel, config);
  auto& security = h.kernel.security();
  security.add_user("alice", "pw", {"scientist"});
  security.grant("scientist", "job.submit", "pool/batch");
  h.run_s(1.0);

  TestClient client(h.cluster, net::NodeId{3});
  send_authorized(client, security, pws.scheduler(), req("alice", 1, 5.0), 1);
  PwsScheduler& sched = pws.scheduler();
  // Step until the job is recorded: its authorization is then in flight.
  while (sched.jobs().empty() && h.cluster.engine().step()) {
  }
  ASSERT_EQ(sched.jobs().size(), 1u);
  const JobId id = sched.jobs().begin()->first;
  ASSERT_EQ(sched.job(id)->state, JobState::kAuthorizing);
  EXPECT_TRUE(sched.cancel(id));
  h.run_s(3.0);

  const auto replies = client.of_type<PwsSubmitReplyMsg>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0]->accepted);
  EXPECT_EQ(replies[0]->job_id, id);
  EXPECT_EQ(replies[0]->reason, to_string(SubmitStatus::kCancelled));
  if (retain_terminal_jobs) {
    ASSERT_NE(sched.job(id), nullptr);
    EXPECT_EQ(sched.job(id)->state, JobState::kCancelled);
  } else {
    EXPECT_EQ(sched.job(id), nullptr);
  }
  EXPECT_EQ(sched.stats().cancelled, 1u);
  EXPECT_EQ(sched.stats().submitted, 0u);
  EXPECT_EQ(sched.running_count(), 0u);
}

// A job cancelled while its authorization is in flight is not run when the
// verdict arrives, and its submitter gets a cancelled verdict.
TEST(PwsSecurityTest, CancelDuringAuthorizationSticks) {
  expect_cancel_during_authorization_sticks(true);
}

// The same with terminal jobs retired at once: the cancelled job is already
// gone when the verdict arrives, and its submitter is still answered.
TEST(PwsSecurityTest, CancelDuringAuthorizationSticksUnretained) {
  expect_cancel_during_authorization_sticks(false);
}

// An authorized submission draws on its tenant's token bucket like any
// other: with room for one job, the second of two is refused.
TEST(PwsSecurityTest, AuthorizedSubmissionPassesAdmission) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  auto config = one_pool_config(h.cluster);
  config.use_security = true;
  config.admission_rate = 0.001;
  config.admission_burst = 1.0;
  PwsSystem pws(h.kernel, config);
  auto& security = h.kernel.security();
  security.add_user("alice", "pw", {"scientist"});
  security.grant("scientist", "job.submit", "pool/batch");
  h.run_s(1.0);

  TestClient client(h.cluster, net::NodeId{3});
  send_authorized(client, security, pws.scheduler(), req("alice", 1, 5.0), 1);
  send_authorized(client, security, pws.scheduler(), req("alice", 1, 5.0), 2);
  h.run_s(3.0);

  const auto replies = client.of_type<PwsSubmitReplyMsg>();
  ASSERT_EQ(replies.size(), 2u);
  std::size_t accepted = 0;
  for (const auto* reply : replies) {
    if (reply->accepted) {
      ++accepted;
    } else {
      EXPECT_EQ(reply->job_id, 0u);
      EXPECT_EQ(reply->reason, to_string(SubmitStatus::kAdmissionDenied));
    }
  }
  EXPECT_EQ(accepted, 1u);
  EXPECT_EQ(pws.scheduler().stats().admission_denied, 1u);
  EXPECT_EQ(pws.scheduler().stats().submitted, 1u);
}

TEST(PwsHaTest, SchedulerProcessRestartKeepsJobs) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsSystem pws(h.kernel, one_pool_config(h.cluster));
  h.run_s(1.0);

  const JobId running = pws.submit(req("alice", 2, 60.0));
  const JobId queued_long = pws.submit(req("alice", 8, 60.0));
  h.run_s(3.0);
  ASSERT_EQ(pws.scheduler().job(running)->state, JobState::kRunning);

  // Kill the scheduler. The GSD supervising it restarts it; checkpointed
  // state brings the job table back.
  h.injector.kill_daemon(pws.scheduler());
  h.run_s(15.0);

  ASSERT_TRUE(pws.scheduler().alive());
  const Job* recovered_running = pws.scheduler().job(running);
  const Job* recovered_queued = pws.scheduler().job(queued_long);
  ASSERT_NE(recovered_running, nullptr);
  ASSERT_NE(recovered_queued, nullptr);
  EXPECT_EQ(recovered_running->state, JobState::kRunning);
  EXPECT_EQ(recovered_queued->state, JobState::kQueued);
}

// An in-place restart restores the queued jobs into the pending indexes of
// the same scheduler object. Those indexes must not keep their pre-kill
// entries too, or each queued job starts twice: the second start overwrites
// its allocation, and the nodes of the first are never freed.
TEST(PwsHaTest, RestartStartsEachQueuedJobOnce) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsSystem pws(h.kernel, one_pool_config(h.cluster));
  std::map<std::string, int> spawns;  // job name -> ppm.spawn messages
  h.cluster.fabric().set_drop_filter(
      [&spawns](const net::Address&, const net::Address&, const net::Message& m) {
        if (const auto* spawn = net::message_cast<kernel::SpawnMsg>(m)) {
          ++spawns[spawn->spec.name];
        }
        return false;
      });
  h.run_s(1.0);

  const JobId wide = pws.submit(req("alice", 8, 10.0));
  const std::vector<JobId> queued = {pws.submit(req("alice", 2, 5.0)),
                                     pws.submit(req("alice", 2, 5.0))};
  h.run_s(3.0);
  ASSERT_EQ(pws.scheduler().job(wide)->state, JobState::kRunning);
  ASSERT_EQ(pws.scheduler().job(queued[0])->state, JobState::kQueued);

  h.injector.kill_daemon(pws.scheduler());
  h.run_s(60.0);
  ASSERT_TRUE(pws.scheduler().alive());
  for (const JobId id : queued) {
    const Job* job = pws.scheduler().job(id);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->state, JobState::kCompleted) << job->name;
    EXPECT_EQ(spawns[job->name], 2) << job->name;
  }

  // Every node is free again, so a job that needs all eight runs.
  const JobId after = pws.submit(req("alice", 8, 5.0));
  h.run_s(10.0);
  EXPECT_EQ(pws.scheduler().job(after)->state, JobState::kCompleted);
}

TEST(PwsHaTest, JobCompletionDuringSchedulerOutageReconciled) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsSystem pws(h.kernel, one_pool_config(h.cluster));
  h.run_s(1.0);

  const JobId id = pws.submit(req("alice", 1, 4.0));
  h.run_s(2.0);
  ASSERT_EQ(pws.scheduler().job(id)->state, JobState::kRunning);

  // Scheduler dies; the job finishes while it is down.
  h.injector.kill_daemon(pws.scheduler());
  h.run_s(15.0);  // job exits at ~4 s; restart + bulletin reconciliation

  ASSERT_TRUE(pws.scheduler().alive());
  h.run_s(5.0);
  EXPECT_EQ(pws.scheduler().job(id)->state, JobState::kCompleted);
}

/// Kills the scheduler, steps until its restart, and loses the first reply
/// of type LostT addressed to it. Then checks that it still comes up (its
/// fault record closes) and that a second kill is repaired as well.
template <typename LostT>
void expect_restart_survives_lost_reply() {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsSystem pws(h.kernel, one_pool_config(h.cluster));
  h.run_s(1.0);
  const JobId running = pws.submit(req("alice", 2, 600.0));
  h.run_s(3.0);
  ASSERT_EQ(pws.scheduler().job(running)->state, JobState::kRunning);

  h.injector.kill_daemon(pws.scheduler());
  const sim::SimTime give_up = h.cluster.now() + 60 * sim::kSecond;
  while (!pws.scheduler().alive()) {
    ASSERT_LT(h.cluster.now(), give_up);
    ASSERT_TRUE(h.cluster.engine().step());
  }
  const net::Address scheduler = pws.scheduler().address();
  auto lost = std::make_shared<bool>(false);
  h.cluster.fabric().set_drop_filter(
      [lost, scheduler](const net::Address&, const net::Address& to,
                        const net::Message& m) {
        if (*lost || to != scheduler || m.type_id() != LostT::static_type_id()) {
          return false;
        }
        *lost = true;
        return true;
      });
  h.run_s(30.0);
  ASSERT_TRUE(*lost);

  const auto first = h.kernel.fault_log().last("pws.scheduler");
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->recovered);
  ASSERT_NE(pws.scheduler().job(running), nullptr);

  h.run_s(30.0);
  h.injector.kill_daemon(pws.scheduler());
  h.run_s(30.0);
  EXPECT_TRUE(pws.scheduler().alive());
  const auto second = h.kernel.fault_log().last("pws.scheduler");
  ASSERT_TRUE(second.has_value());
  EXPECT_GT(second->detected_at, first->detected_at);
  EXPECT_TRUE(second->recovered);
}

// The restarted scheduler's checkpoint load is retried when its reply is
// lost, instead of leaving the scheduler unannounced — and the GSD, which
// waits for that announcement, unable to repair a second kill.
TEST(PwsHaTest, LostRestartLoadReplyStillComesUp) {
  expect_restart_survives_lost_reply<kernel::CheckpointLoadReplyMsg>();
}

// Same for the bulletin reconcile that follows the load.
TEST(PwsHaTest, LostReconcileReplyStillComesUp) {
  expect_restart_survives_lost_reply<kernel::DbQueryReplyMsg>();
}

// Crashing the scheduler's node takes its partition's GSD down too. The GSD
// that migration creates must re-create the scheduler on the backup node,
// and the replacement must restore the job table instead of starting empty.
TEST(PwsHaTest, SchedulerSurvivesHostNodeCrash) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsSystem pws(h.kernel, one_pool_config(h.cluster));
  h.run_s(1.0);

  const JobId running = pws.submit(req("alice", 2, 600.0));
  const JobId queued = pws.submit(req("alice", 8, 60.0));
  h.run_s(3.0);
  ASSERT_EQ(pws.scheduler().job(running)->state, JobState::kRunning);
  const net::NodeId host = pws.scheduler().node_id();

  h.injector.crash_node(host);
  h.run_s(60.0);

  const PwsScheduler& fresh = pws.scheduler();
  ASSERT_TRUE(fresh.alive());
  EXPECT_NE(fresh.node_id(), host);
  // Presence only: the reconcile after a migration queries a bulletin
  // instance that has no rows yet, so the running job is taken for finished
  // and the queued one starts on its nodes.
  EXPECT_NE(fresh.job(running), nullptr);
  EXPECT_NE(fresh.job(queued), nullptr);
}

// deserialize_jobs splits a checkpoint on '|' and '\n', so a job whose text
// fields held one used to be acknowledged, then dropped by the restore.
// Such a submission is refused with no job id, on the per-job and the
// batched path and with and without authorization, and every acknowledged
// job survives a scheduler restart.
TEST(PwsHaTest, SeparatorInTextFieldRefusedNotLostOnRestore) {
  for (const bool secure : {false, true}) {
    SCOPED_TRACE(secure ? "with security" : "without security");
    KernelHarness h(small_cluster_spec(), fast_ft_params());
    auto config = one_pool_config(h.cluster);
    config.use_security = secure;
    PwsSystem pws(h.kernel, config);
    auto& security = h.kernel.security();
    for (const char* user : {"alice", "bob\nx", "carol"}) {
      security.add_user(user, "pw", {"scientist"});
    }
    security.grant("scientist", "job.submit", "pool/batch");
    h.run_s(1.0);

    SubmitRequest piped = req("alice", 1, 600.0);
    piped.name = "render|final";
    const SubmitRequest broken = req("bob\nx", 1, 600.0);
    const SubmitRequest plain = req("carol", 1, 600.0);
    TestClient client(h.cluster, net::NodeId{3});
    std::uint64_t request_id = 0;
    for (const SubmitRequest& request : {piped, broken, plain}) {
      auto msg = std::make_shared<PwsSubmitMsg>();
      msg->request = request;
      msg->token = *security.authenticate(request.user, "pw");
      msg->reply_to = client.address();
      msg->request_id = ++request_id;
      client.send_any(pws.scheduler().address(), msg);
    }
    auto batch = std::make_shared<PwsSubmitBatchMsg>();
    batch->requests = {piped, broken, plain};
    batch->reply_to = client.address();
    batch->request_id = ++request_id;
    client.send_any(pws.scheduler().address(), batch);
    h.run_s(3.0);

    std::vector<JobId> acknowledged;
    const auto replies = client.of_type<PwsSubmitReplyMsg>();
    ASSERT_EQ(replies.size(), 3u);
    for (const auto* reply : replies) {
      EXPECT_EQ(reply->accepted, reply->request_id == 3)
          << "request " << reply->request_id;
      if (reply->accepted) {
        acknowledged.push_back(reply->job_id);
      } else {
        EXPECT_EQ(reply->job_id, 0u);
        EXPECT_EQ(reply->reason, to_string(SubmitStatus::kMalformed));
      }
    }
    const auto* batch_reply = client.last_of_type<PwsSubmitBatchReplyMsg>();
    ASSERT_NE(batch_reply, nullptr);
    ASSERT_EQ(batch_reply->results.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      const BatchSubmitResult& result = batch_reply->results[i];
      EXPECT_EQ(result.status,
                i == 2 ? SubmitStatus::kAccepted : SubmitStatus::kMalformed)
          << "batch item " << i;
      if (result.status == SubmitStatus::kAccepted) {
        acknowledged.push_back(result.job_id);
      } else {
        EXPECT_EQ(result.job_id, 0u);
      }
    }

    h.injector.kill_daemon(pws.scheduler());
    h.run_s(15.0);
    ASSERT_TRUE(pws.scheduler().alive());
    for (const JobId id : acknowledged) {
      EXPECT_NE(pws.scheduler().job(id), nullptr)
          << "job " << id << " acknowledged, then lost";
    }
    EXPECT_EQ(pws.scheduler().jobs().size(), acknowledged.size());
  }
}

TEST(PwsSerializationTest, JobsRoundTrip) {
  std::map<JobId, Job> jobs;
  Job j;
  j.id = 7;
  j.name = "alpha";
  j.user = "bob";
  j.pool = "batch";
  j.nodes_needed = 3;
  j.duration = 123456;
  j.state = JobState::kRunning;
  j.submitted_at = 10;
  j.started_at = 20;
  j.exited = 1;
  j.requeues = 2;
  j.allocated = {net::NodeId{4}, net::NodeId{5}};
  j.pids = {{4, 100}, {5, 101}};
  jobs[7] = j;

  const auto parsed = deserialize_jobs(serialize_jobs(jobs));
  ASSERT_EQ(parsed.size(), 1u);
  const Job& p = parsed.at(7);
  EXPECT_EQ(p.name, "alpha");
  EXPECT_EQ(p.user, "bob");
  EXPECT_EQ(p.nodes_needed, 3u);
  EXPECT_EQ(p.duration, 123456u);
  EXPECT_EQ(p.state, JobState::kRunning);
  EXPECT_EQ(p.requeues, 2u);
  ASSERT_EQ(p.allocated.size(), 2u);
  EXPECT_EQ(p.allocated[1].value, 5u);
  EXPECT_EQ(p.pids.at(4), 100u);
}

TEST(PwsSerializationTest, MalformedLinesSkipped) {
  const auto parsed = deserialize_jobs("garbage|line\n\nnot|enough|fields\n");
  EXPECT_TRUE(parsed.empty());
}

TEST(PwsSerializationTest, ExactBytes) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::map<JobId, Job> jobs;
  Job full;
  full.id = kMax;
  full.name = "alpha";
  full.user = "bob";
  full.pool = "batch";
  full.nodes_needed = 3;
  full.duration = 123456;
  full.state = JobState::kRunning;
  full.submitted_at = kMax;
  full.started_at = kMax;
  full.finished_at = kMax;
  full.exited = 1;
  full.requeues = 2;
  full.priority = -7;
  full.walltime_limit = 600000000;
  full.arch = "x86_64";
  full.after_ok = 42;
  full.allocated = {net::NodeId{4}, net::NodeId{5}, net::NodeId{4294967295u}};
  full.pids = {{4, 100}, {5, 101}, {4294967295u, kMax}};
  jobs[full.id] = full;
  Job bare;
  bare.id = 7;
  bare.user = "carol";
  bare.pool = "batch";
  bare.submitted_at = 5;
  jobs[bare.id] = bare;

  // One line per job, in id order.
  EXPECT_EQ(serialize_jobs(jobs),
            "7||carol|batch|1|0|1|5|0|0|0|0|0|0||0||\n"
            "18446744073709551615|alpha|bob|batch|3|123456|2|"
            "18446744073709551615|18446744073709551615|18446744073709551615|"
            "1|2|-7|600000000|x86_64|42|4,5,4294967295|"
            "4=100,5=101,4294967295=18446744073709551615\n");
  EXPECT_EQ(serialize_jobs({}), "");
}

TEST(PwsSerializationTest, OutOfRangeFieldsSkipped) {
  // A valid line, then the same job with state 9, with no node, and with a
  // node count that does not fit `unsigned` (it used to truncate to 0).
  const auto parsed = deserialize_jobs(
      "1|a|u|batch|1|0|1|0|0|0|0|0|0|0||0||\n"
      "2|b|u|batch|1|0|9|0|0|0|0|0|0|0||0||\n"
      "3|c|u|batch|0|0|1|0|0|0|0|0|0|0||0||\n"
      "4|d|u|batch|4294967296|0|1|0|0|0|0|0|0|0||0||\n"
      "5|e|u|batch|2|0|-1|0|0|0|0|0|0|0||0||\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.begin()->first, 1u);
  EXPECT_EQ(parsed.at(1).state, JobState::kQueued);
}

// JobRows against its reference: random inserts, field edits, erases and
// wholesale replacements (a restore, followed by reset()) over sparse ids
// around block boundaries, 0 and UINT64_MAX included, compared with
// serialize_jobs after every batch of changes.
TEST(PwsSerializationTest, JobRowsEncodeEqualsSerializeJobs) {
  constexpr JobId kMax = std::numeric_limits<JobId>::max();
  constexpr JobId kBlock = JobRows::kBlockJobs;
  // Three blocks from each base: both ends of the id space and two between.
  const std::vector<JobId> bases = {0, 5 * kBlock, JobId{1} << 32,
                                    kMax - 3 * kBlock + 1};
  std::mt19937_64 rng(7);
  const auto below = [&rng](std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
  };
  const auto random_id = [&] { return bases[below(bases.size())] + below(3 * kBlock); };
  const auto random_job = [&](JobId id) {
    Job job;
    job.id = id;
    job.name = "j" + std::to_string(below(1000));
    job.user = "u" + std::to_string(below(10));
    job.pool = "batch";
    job.nodes_needed = 1 + static_cast<unsigned>(below(4));
    job.state = static_cast<JobState>(below(8));
    job.submitted_at = below(1'000'000);
    return job;
  };
  const auto random_table = [&] {
    std::map<JobId, Job> table;
    for (int i = 0; i < 40; ++i) {
      const JobId id = random_id();
      table[id] = random_job(id);
    }
    table[0] = random_job(0);
    table[kMax] = random_job(kMax);
    return table;
  };

  std::map<JobId, Job> jobs = random_table();
  JobRows rows;
  ASSERT_EQ(rows.encode(jobs), serialize_jobs(jobs));
  for (int batch = 0; batch < 300; ++batch) {
    if (below(16) == 0) {
      jobs = random_table();
      rows.reset();
    }
    const auto changes = below(12);  // 0: an encode with nothing changed
    for (std::uint64_t c = 0; c < changes; ++c) {
      const auto op = below(3);
      if (op == 0 || jobs.empty()) {
        const JobId id = random_id();
        jobs[id] = random_job(id);
        rows.changed(id);
        continue;
      }
      auto it =
          std::next(jobs.begin(), static_cast<std::ptrdiff_t>(below(jobs.size())));
      const JobId id = it->first;
      if (op == 1) {
        jobs.erase(it);
      } else {
        Job& job = it->second;
        const auto node = static_cast<std::uint32_t>(below(64));
        switch (below(5)) {
          case 0: job.state = static_cast<JobState>(below(8)); break;
          case 1: ++job.exited; break;
          case 2: job.allocated.push_back(net::NodeId{node}); break;
          case 3: job.pids[node] = below(100'000); break;
          default: job.name += "x"; break;
        }
      }
      rows.changed(id);
    }
    ASSERT_EQ(rows.encode(jobs), serialize_jobs(jobs)) << "batch " << batch;
  }
  for (auto it = jobs.begin(); it != jobs.end();) {
    rows.changed(it->first);
    it = jobs.erase(it);
  }
  EXPECT_EQ(rows.encode(jobs), "");
}

// Scheduling passes, driven one at a time: nothing between submit() and
// schedule_now() advances the simulation, so each check sees exactly one
// pass over the queue.
class PwsScanTest : public ::testing::Test {
 protected:
  void boot(SchedPolicy policy) {
    pws = std::make_unique<PwsSystem>(h.kernel, one_pool_config(h.cluster, policy));
    h.run_s(1.0);
  }
  PwsScheduler& sched() { return pws->scheduler(); }
  std::vector<JobId> pending() { return sched().pool("batch")->pending_jobs(); }
  JobState state(JobId id) { return sched().job(id)->state; }

  /// Leaves 2 of the 8 nodes free behind a 6-node job running for 100 s,
  /// then queues [job gated on it, 3-node job, 5 s job, 500 s job].
  void queue_behind_blocked_head() {
    runner = sched().submit(req("u", 6, 100.0));
    h.run_s(3.0);
    ASSERT_EQ(state(runner), JobState::kRunning);
    SubmitRequest gated_req = req("u", 1, 1.0);
    gated_req.after_ok = runner;
    gated = sched().submit(gated_req);
    head = sched().submit(req("u", 3, 10.0));
    short_job = sched().submit(req("u", 1, 5.0));
    long_job = sched().submit(req("u", 1, 500.0));
  }

  KernelHarness h{small_cluster_spec(), fast_ft_params()};
  std::unique_ptr<PwsSystem> pws;
  JobId runner = 0, gated = 0, head = 0, short_job = 0, long_job = 0;
};

TEST_F(PwsScanTest, FifoStartsNothingBehindBlockedHead) {
  boot(SchedPolicy::kFifo);
  queue_behind_blocked_head();
  sched().schedule_now();
  for (const JobId id : {gated, head, short_job, long_job}) {
    EXPECT_EQ(state(id), JobState::kQueued) << "job " << id;
  }
  EXPECT_EQ(pending(), (std::vector<JobId>{gated, head, short_job, long_job}));
}

TEST_F(PwsScanTest, BackfillStartsOnlyJobEndingBeforeHeadShadow) {
  boot(SchedPolicy::kBackfill);
  queue_behind_blocked_head();
  sched().schedule_now();
  EXPECT_EQ(state(short_job), JobState::kRunning);
  for (const JobId id : {gated, head, long_job}) {
    EXPECT_EQ(state(id), JobState::kQueued) << "job " << id;
  }
  EXPECT_EQ(pending(), (std::vector<JobId>{gated, head, long_job}));
}

TEST_F(PwsScanTest, MultiNodeJobTakesLowestFreeNodes) {
  boot(SchedPolicy::kFifo);
  std::vector<net::NodeId> nodes = sched().pool("batch")->owned_nodes();
  std::sort(nodes.begin(), nodes.end(),
            [](net::NodeId a, net::NodeId b) { return a.value < b.value; });
  // Busy the three lowest nodes, then free the two lowest: the free set is
  // {0, 1, 3, 4, ...} in pool order.
  const JobId pair = sched().submit(req("u", 2, 100.0));
  const JobId single = sched().submit(req("u", 1, 100.0));
  sched().schedule_now();
  ASSERT_EQ(state(pair), JobState::kRunning);
  ASSERT_EQ(state(single), JobState::kRunning);
  ASSERT_TRUE(sched().cancel(pair));

  const JobId triple = sched().submit(req("u", 3, 100.0));
  sched().schedule_now();
  ASSERT_EQ(state(triple), JobState::kRunning);
  EXPECT_EQ(sched().job(triple)->allocated,
            (std::vector<net::NodeId>{nodes[0], nodes[1], nodes[3]}));
}

TEST_F(PwsScanTest, DeadDependentsDroppedInOnePassOthersKeepOrder) {
  boot(SchedPolicy::kBackfill);
  const JobId runner6 = sched().submit(req("u", 6, 100.0));
  h.run_s(3.0);
  ASSERT_EQ(state(runner6), JobState::kRunning);
  // [doomed, head, dep1, slow1, dep2, slow2]: the head blocks, the slow
  // jobs end after its reserved start, and both dependents lose their
  // dependency when `doomed` is cancelled.
  const JobId doomed = sched().submit(req("u", 8, 1.0));
  const JobId blocked = sched().submit(req("u", 3, 10.0));
  SubmitRequest dep_req = req("u", 1, 1.0);
  dep_req.after_ok = doomed;
  const JobId dep1 = sched().submit(dep_req);
  const JobId slow1 = sched().submit(req("u", 1, 500.0));
  const JobId dep2 = sched().submit(dep_req);
  const JobId slow2 = sched().submit(req("u", 1, 600.0));
  ASSERT_TRUE(sched().cancel(doomed));
  sched().schedule_now();
  EXPECT_EQ(state(dep1), JobState::kCancelled);
  EXPECT_EQ(state(dep2), JobState::kCancelled);
  EXPECT_EQ(pending(), (std::vector<JobId>{blocked, slow1, slow2}));
}

// Every checkpoint the scheduler sends equals serialize_jobs of its job
// table at send time. Each step runs some of the scheduler's writes to the
// table on a job that starts a fresh JobRows block, with a save (every
// 100 ms tick saves) before anything else touches that block, so a write
// that does not report its job to the encoder leaves a stale row behind.
// Parameters: checkpoint_interval, retain_terminal_jobs.
class PwsCheckpointTest
    : public ::testing::TestWithParam<std::tuple<sim::SimTime, bool>> {};

TEST_P(PwsCheckpointTest, EverySaveEqualsSerializeJobs) {
  const auto [interval, retain] = GetParam();
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  auto config = one_pool_config(h.cluster);
  config.use_security = true;
  config.checkpoint_interval = interval;
  config.retain_terminal_jobs = retain;
  config.schedule_tick = 100 * sim::kMillisecond;
  PwsSystem pws(h.kernel, config);
  auto& security = h.kernel.security();
  security.add_user("alice", "pw", {"scientist"});
  security.grant("scientist", "job.submit", "pool/batch");
  security.add_user("mallory", "pw", {"guest"});
  h.run_s(1.0);

  std::size_t saves = 0;
  std::size_t mismatches = 0;
  bool lose_authz_reply = false;
  h.cluster.fabric().set_drop_filter(
      [&](const net::Address& from, const net::Address&, const net::Message& m) {
        if (lose_authz_reply &&
            m.type_id() == kernel::AuthzReplyMsg::static_type_id()) {
          lose_authz_reply = false;
          return true;
        }
        const auto* save = net::message_cast<kernel::CheckpointSaveMsg>(m);
        if (save == nullptr || from != pws.scheduler().address()) return false;
        ++saves;
        if (save->data.str() != serialize_jobs(pws.scheduler().jobs())) ++mismatches;
        return false;
      });
  auto sched = [&]() -> PwsScheduler& { return pws.scheduler(); };
  // Unknown-pool rejections take job ids: skip to the first id of a block,
  // which the next job takes.
  const auto fresh_block = [&] {
    JobId id = 0;
    do {
      id = sched().submit(req("filler", 1, 1.0, "no-such-pool"));
    } while ((id + 1) % JobRows::kBlockJobs != 0);
    return id + 1;
  };
  TestClient client(h.cluster, net::NodeId{3});
  std::uint64_t request_id = 0;
  const auto authorized_submit = [&](const std::string& user, unsigned nodes) {
    auto msg = std::make_shared<PwsSubmitMsg>();
    msg->request = req(user, nodes, 1.0);
    msg->token = *security.authenticate(user, "pw");
    msg->reply_to = client.address();
    msg->request_id = ++request_id;
    client.send_any(sched().address(), msg);
  };

  // A 2-node job whose second exit notice arrives 150 ms after the first.
  fresh_block();
  const JobId pair = sched().submit(req("u", 2, 3.0));
  h.run_s(0.5);
  ASSERT_EQ(sched().job(pair)->state, JobState::kRunning);
  const net::NodeId late = sched().job(pair)->allocated[1];
  h.injector.slow_node(late, 150 * sim::kMillisecond);
  h.run_s(3.5);
  h.injector.restore_node_speed(late);

  // The batched path, with one unknown pool.
  fresh_block();
  auto batch = std::make_shared<PwsSubmitBatchMsg>();
  batch->requests = {req("u", 1, 1.0), req("u", 1, 1.0, "no-such-pool")};
  batch->reply_to = client.address();
  batch->request_id = ++request_id;
  client.send_any(sched().address(), batch);
  h.run_s(2.0);

  // Authorization allowed, with a save while the job is authorizing, then
  // denied, and unanswered.
  const JobId allowed = fresh_block();
  authorized_submit("alice", 1);
  const sim::SimTime give_up = h.cluster.now() + sim::kSecond;
  while (sched().job(allowed) == nullptr) {
    ASSERT_LT(h.cluster.now(), give_up);
    ASSERT_TRUE(h.cluster.engine().step());
  }
  ASSERT_EQ(sched().job(allowed)->state, JobState::kAuthorizing);
  sched().schedule_now();  // the pass ends in a save
  h.run_s(2.0);
  fresh_block();
  authorized_submit("mallory", 1);
  h.run_s(0.5);
  fresh_block();
  lose_authz_reply = true;
  authorized_submit("alice", 1);
  h.run_s(8.0);

  // An after_ok chain, and a dependent whose dependency is cancelled queued.
  fresh_block();
  const JobId first = sched().submit(req("u", 1, 1.0));
  fresh_block();
  SubmitRequest then = req("u", 1, 1.0);
  then.after_ok = first;
  sched().submit(then);
  h.run_s(3.0);
  fresh_block();
  const JobId doomed = sched().submit(req("u", 1, 1.0));
  fresh_block();
  SubmitRequest orphan = req("u", 1, 1.0);
  orphan.after_ok = doomed;
  sched().submit(orphan);
  EXPECT_TRUE(sched().cancel(doomed));
  h.run_s(0.5);

  // A running job cancelled, a walltime kill, a node-failure requeue.
  fresh_block();
  const JobId victim = sched().submit(req("u", 1, 100.0));
  h.run_s(0.5);
  EXPECT_TRUE(sched().cancel(victim));
  h.run_s(0.5);
  fresh_block();
  SubmitRequest overrun = req("u", 1, 100.0);
  overrun.walltime_limit = 1 * sim::kSecond;
  sched().submit(overrun);
  h.run_s(2.5);
  fresh_block();
  const JobId requeued = sched().submit(req("u", 1, 100.0));
  h.run_s(0.5);
  ASSERT_EQ(sched().job(requeued)->state, JobState::kRunning);
  h.injector.crash_node(sched().job(requeued)->allocated[0]);
  h.run_s(15.0);

  // A scheduler kill during an authorization that is never answered: the
  // restore turns the authorizing job queued, and nothing else rewrites its
  // row, since a 9-node job never starts in this 8-node pool.
  fresh_block();
  lose_authz_reply = true;
  authorized_submit("alice", 9);
  h.run_s(0.5);
  h.injector.kill_daemon(sched());
  h.run_s(15.0);
  ASSERT_TRUE(sched().alive());
  h.run_s(5.0);

  const PwsStats& stats = sched().stats();
  EXPECT_GE(stats.completed, 4u);
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.requeued, 1u);
  EXPECT_GE(stats.cancelled, 3u);  // the queued, the orphan and the running one
  EXPECT_GT(saves, 200u);
  EXPECT_EQ(mismatches, 0u);
  h.cluster.fabric().set_drop_filter(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    IntervalAndRetention, PwsCheckpointTest,
    ::testing::Combine(::testing::Values(sim::SimTime{0}, 10 * sim::kMillisecond),
                       ::testing::Bool()));

}  // namespace
}  // namespace phoenix::pws
