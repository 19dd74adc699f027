// SubmissionGateway tests: window coalescing, weighted fair batch assembly,
// local cancel absorption, token-bucket admission under job spam, batch
// replay idempotency, and the pws.* metrics surfacing in the admin console.
#include "pws/gateway.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "admin/admin_console.h"
#include "kernel_fixture.h"
#include "pws/pws.h"
#include "test_client.h"

namespace phoenix::pws {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::TestClient;
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

SubmitRequest req(const std::string& user, unsigned nodes, double seconds) {
  SubmitRequest r;
  r.user = user;
  r.pool = "batch";
  r.nodes = nodes;
  r.duration = sim::from_seconds(seconds);
  return r;
}

/// Harness + scheduler + gateway. `tweak` edits the scheduler config after
/// the pool over all compute nodes is built (the cluster must exist first).
struct GatewayRig {
  using ConfigFn = std::function<void(PwsConfig&)>;

  explicit GatewayRig(ConfigFn tweak = {}, GatewayConfig gw = {})
      : h(small_cluster_spec(), fast_ft_params()),
        pws(h.kernel, make_config(h.cluster, std::move(tweak))) {
    h.run_s(1.0);
    gw.scheduler = pws.scheduler().address();
    gateway = std::make_unique<SubmissionGateway>(
        h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[0], gw);
  }

  static PwsConfig make_config(const cluster::Cluster& cluster, ConfigFn tweak) {
    PwsConfig config = one_pool_config(cluster);
    if (tweak) tweak(config);
    return config;
  }

  KernelHarness h;
  PwsSystem pws;
  std::unique_ptr<SubmissionGateway> gateway;
};

TEST(PwsGatewayTest, WindowCoalescesSubmissionsIntoOneBatch) {
  GatewayRig rig;
  for (int i = 0; i < 20; ++i) {
    rig.gateway->submit(req("u" + std::to_string(i), 1, 0.05));
  }
  rig.h.run_s(0.5);

  // All 20 submissions landed in the same 10 ms window: one wire batch.
  EXPECT_EQ(rig.gateway->stats().batches_sent, 1u);
  EXPECT_EQ(rig.gateway->stats().accepted, 20u);
  EXPECT_EQ(rig.gateway->stats().retries, 0u);
  EXPECT_EQ(rig.pws.scheduler().stats().batches, 1u);
  EXPECT_EQ(rig.pws.scheduler().jobs().size(), 20u);
}

TEST(PwsGatewayTest, OversizedWindowSplitsAtMaxBatch) {
  GatewayConfig gw;
  gw.max_batch = 8;
  GatewayRig rig({}, gw);
  for (int i = 0; i < 20; ++i) {
    rig.gateway->submit(req("u" + std::to_string(i), 1, 0.05));
  }
  rig.h.run_s(0.5);

  EXPECT_EQ(rig.gateway->stats().batches_sent, 3u);  // 8 + 8 + 4
  EXPECT_EQ(rig.gateway->stats().accepted, 20u);
  EXPECT_EQ(rig.pws.scheduler().stats().batches, 3u);
}

/// Returns a callback that appends `user` to `order` on an accepted verdict.
/// Within one batch, verdicts arrive in assembly order, so with a single
/// batch on the wire the callback sequence exposes the DRR interleaving.
SubmissionGateway::SubmitCallback track_user(std::vector<std::string>& order,
                                             std::string user) {
  return [&order, user = std::move(user)](SubmissionGateway::Ticket,
                                          const BatchSubmitResult& r) {
    if (r.status == SubmitStatus::kAccepted) order.push_back(user);
  };
}

TEST(PwsGatewayTest, FairAssemblyInterleavesTenantsUnderSpam) {
  GatewayRig rig;
  std::vector<std::string> verdict_order;

  // A spammer floods the window before alice's two jobs arrive. One batch
  // ships (8 <= max_batch), so verdicts replay the assembly order.
  for (int i = 0; i < 6; ++i) {
    rig.gateway->submit(req("spam", 1, 0.05),
                        track_user(verdict_order, "spam"));
  }
  rig.gateway->submit(req("alice", 1, 0.05),
                      track_user(verdict_order, "alice"));
  rig.gateway->submit(req("alice", 1, 0.05),
                      track_user(verdict_order, "alice"));
  rig.h.run_s(1.0);

  ASSERT_EQ(rig.gateway->stats().batches_sent, 1u);
  ASSERT_EQ(verdict_order.size(), 8u);
  // Round-robin: alice drains one job per round instead of waiting behind
  // the spammer's whole backlog.
  EXPECT_EQ(verdict_order[1], "alice");
  EXPECT_EQ(verdict_order[3], "alice");
}

TEST(PwsGatewayTest, TenantWeightsScaleDrrShare) {
  GatewayConfig gw;
  gw.tenant_weights["alice"] = 3.0;
  GatewayRig rig({}, gw);
  std::vector<std::string> verdict_order;

  for (int i = 0; i < 20; ++i) {
    rig.gateway->submit(req("spam", 1, 0.05),
                        track_user(verdict_order, "spam"));
  }
  for (int i = 0; i < 6; ++i) {
    rig.gateway->submit(req("alice", 1, 0.05),
                        track_user(verdict_order, "alice"));
  }
  rig.h.run_s(1.0);

  ASSERT_EQ(rig.gateway->stats().batches_sent, 1u);
  ASSERT_EQ(verdict_order.size(), 26u);
  // Weight 3 earns alice three slots per round to the spammer's one, so her
  // whole backlog drains within the first two DRR rounds.
  std::size_t alice_early = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    if (verdict_order[i] == "alice") ++alice_early;
  }
  EXPECT_EQ(alice_early, 6u);
}

TEST(PwsGatewayTest, ImmediateCancelAbsorbedLocally) {
  GatewayRig rig;
  std::vector<SubmitStatus> verdicts;
  std::vector<SubmissionGateway::Ticket> tickets;
  for (int i = 0; i < 5; ++i) {
    tickets.push_back(rig.gateway->submit(
        req("u" + std::to_string(i), 1, 0.05),
        [&verdicts](SubmissionGateway::Ticket, const BatchSubmitResult& r) {
          verdicts.push_back(r.status);
        }));
  }
  for (SubmissionGateway::Ticket t : tickets) {
    EXPECT_TRUE(rig.gateway->cancel(t));
  }
  rig.h.run_s(0.5);

  // Nothing ever reached the scheduler: no batch, no job, no cancel RPC.
  EXPECT_EQ(rig.gateway->stats().absorbed_cancels, 5u);
  EXPECT_EQ(rig.gateway->stats().batches_sent, 0u);
  EXPECT_EQ(rig.gateway->stats().cancels_sent, 0u);
  EXPECT_EQ(rig.pws.scheduler().jobs().size(), 0u);
  ASSERT_EQ(verdicts.size(), 5u);
  for (SubmitStatus s : verdicts) EXPECT_EQ(s, SubmitStatus::kCancelled);
}

TEST(PwsGatewayTest, CancelAfterShipCancelsRemotely) {
  GatewayRig rig;
  JobId id = 0;
  const SubmissionGateway::Ticket ticket = rig.gateway->submit(
      req("alice", 1, 30.0),
      [&id](SubmissionGateway::Ticket, const BatchSubmitResult& r) {
        id = r.job_id;
      });
  rig.h.run_s(0.5);
  ASSERT_NE(id, 0u);

  // The submission already left in a batch; the local absorb path refuses
  // and the caller falls back to a batched remote cancel by job id.
  EXPECT_FALSE(rig.gateway->cancel(ticket));
  rig.gateway->cancel_job(id);
  rig.h.run_s(0.5);

  EXPECT_EQ(rig.gateway->stats().cancels_sent, 1u);
  const Job* job = rig.pws.scheduler().job(id);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->state, JobState::kCancelled);
  EXPECT_EQ(rig.pws.scheduler().stats().cancelled, 1u);
}

/// Records when each submit batch goes on the wire and drops the first
/// `lose` batch replies.
void watch_batches(SubmissionGateway& gateway, cluster::Cluster& cluster,
                   std::vector<sim::SimTime>& sent, unsigned lose) {
  const net::Address to_gateway = gateway.address();
  auto left = std::make_shared<unsigned>(lose);
  cluster.fabric().set_drop_filter(
      [&sent, &cluster, to_gateway, left](const net::Address&,
                                          const net::Address& to,
                                          const net::Message& m) {
        if (m.type_id() == PwsSubmitBatchMsg::static_type_id()) {
          sent.push_back(cluster.now());
          return false;
        }
        if (to != to_gateway ||
            m.type_id() != PwsSubmitBatchReplyMsg::static_type_id() ||
            *left == 0) {
          return false;
        }
        --*left;
        return true;
      });
}

TEST(PwsGatewayTest, UnansweredBatchResentEveryTwoSecondsThenUnavailable) {
  GatewayRig rig;
  std::vector<sim::SimTime> sent;
  watch_batches(*rig.gateway, rig.h.cluster, sent, ~0u);
  SubmitStatus status = SubmitStatus::kAccepted;
  sim::SimTime done_at = 0;
  rig.gateway->submit(req("alice", 1, 0.05),
                      [&](SubmissionGateway::Ticket, const BatchSubmitResult& r) {
                        status = r.status;
                        done_at = rig.h.cluster.now();
                      });
  rig.h.run_s(20.0);

  ASSERT_EQ(sent.size(), 5u);
  const sim::SimTime t = sent[0];
  for (std::size_t i = 1; i < sent.size(); ++i) {
    EXPECT_EQ(sent[i], t + static_cast<sim::SimTime>(2 * i) * sim::kSecond);
  }
  EXPECT_EQ(status, SubmitStatus::kUnavailable);
  EXPECT_EQ(done_at, t + 10 * sim::kSecond);
  EXPECT_EQ(rig.gateway->stats().retries, 4u);
  EXPECT_EQ(rig.gateway->stats().failed, 1u);
  EXPECT_EQ(rig.gateway->inflight(), 0u);
}

TEST(PwsGatewayTest, LostBatchReplyResentOnceThenQuiet) {
  GatewayRig rig;
  std::vector<sim::SimTime> sent;
  watch_batches(*rig.gateway, rig.h.cluster, sent, 1);
  SubmitStatus status = SubmitStatus::kUnavailable;
  rig.gateway->submit(req("alice", 1, 0.05),
                      [&](SubmissionGateway::Ticket, const BatchSubmitResult& r) {
                        status = r.status;
                      });
  rig.h.run_s(20.0);

  // The retransmit is answered from the scheduler's replay cache.
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[1], sent[0] + 2 * sim::kSecond);
  EXPECT_EQ(status, SubmitStatus::kAccepted);
  EXPECT_EQ(rig.gateway->stats().retries, 1u);
  EXPECT_EQ(rig.pws.scheduler().jobs().size(), 1u);
  EXPECT_EQ(rig.gateway->inflight(), 0u);
}

TEST(PwsGatewayTest, AdmissionTokenBucketThrottlesSpammer) {
  GatewayRig rig([](PwsConfig& c) {
    c.admission_rate = 1.0;
    c.admission_burst = 4.0;
  });

  std::uint64_t spam_accepted = 0, spam_denied = 0, alice_accepted = 0;
  for (int i = 0; i < 40; ++i) {
    rig.gateway->submit(
        req("spam", 1, 0.05),
        [&](SubmissionGateway::Ticket, const BatchSubmitResult& r) {
          if (r.status == SubmitStatus::kAccepted) ++spam_accepted;
          if (r.status == SubmitStatus::kAdmissionDenied) ++spam_denied;
        });
  }
  for (int i = 0; i < 2; ++i) {
    rig.gateway->submit(
        req("alice", 1, 0.05),
        [&](SubmissionGateway::Ticket, const BatchSubmitResult& r) {
          if (r.status == SubmitStatus::kAccepted) ++alice_accepted;
        });
  }
  rig.h.run_s(1.0);

  // The whole window executes at one instant: the spammer gets exactly its
  // burst allowance, while the well-behaved tenant is untouched.
  EXPECT_EQ(spam_accepted, 4u);
  EXPECT_EQ(spam_denied, 36u);
  EXPECT_EQ(alice_accepted, 2u);
  EXPECT_EQ(rig.pws.scheduler().stats().admission_denied, 36u);
  EXPECT_EQ(rig.gateway->stats().denied, 36u);
  EXPECT_EQ(rig.pws.scheduler().jobs().size(), 6u);
}

TEST(PwsGatewayTest, DuplicateSubmitBatchReturnsIdenticalJobIds) {
  GatewayRig rig;
  TestClient client(rig.h.cluster,
                    rig.h.cluster.compute_nodes(net::PartitionId{1})[0]);

  auto make_batch = [&client] {
    auto msg = std::make_shared<PwsSubmitBatchMsg>();
    for (int i = 0; i < 3; ++i) {
      msg->requests.push_back(req("dup-user", 1, 0.05));
    }
    msg->reply_to = client.address();
    msg->request_id = 777;
    return msg;
  };

  const net::Address sched = rig.pws.scheduler().address();
  client.send_any(sched, make_batch());
  rig.h.run_s(0.5);
  // Retransmit of the same (client, request_id): the ReplayCache must answer
  // from its transcript without creating new jobs.
  client.send_any(sched, make_batch());
  rig.h.run_s(0.5);

  const auto replies = client.of_type<PwsSubmitBatchReplyMsg>();
  ASSERT_EQ(replies.size(), 2u);
  ASSERT_EQ(replies[0]->results.size(), 3u);
  ASSERT_EQ(replies[1]->results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(replies[0]->results[i].status, SubmitStatus::kAccepted);
    EXPECT_EQ(replies[1]->results[i].job_id, replies[0]->results[i].job_id);
    EXPECT_EQ(replies[1]->results[i].status, replies[0]->results[i].status);
  }
  EXPECT_EQ(rig.pws.scheduler().jobs().size(), 3u);
  EXPECT_EQ(rig.pws.scheduler().stats().batches, 1u);  // replay not re-executed
}

TEST(PwsGatewayTest, MetricsSurfaceInAdminReport) {
  GatewayRig rig;
  rig.h.cluster.metrics().set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    rig.gateway->submit(req("u" + std::to_string(i), 1, 0.05));
  }
  rig.h.run_s(1.0);

  admin::AdminConsole console(
      rig.h.cluster, rig.h.cluster.compute_nodes(net::PartitionId{0})[1],
      rig.h.kernel);
  const std::string report = console.metrics_report();
  EXPECT_NE(report.find("pws.schedule_latency_us"), std::string::npos);
  EXPECT_NE(report.find("pws.gateway.batches"), std::string::npos);
  EXPECT_NE(report.find("pws.gateway.backlog"), std::string::npos);
  EXPECT_NE(report.find("pws.queue_depth"), std::string::npos);
}

}  // namespace
}  // namespace phoenix::pws
