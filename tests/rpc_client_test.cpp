// RpcClient tests (DESIGN.md §9): replies complete a call exactly once,
// unanswered calls retry until their budget is spent, a fixed per-call wait
// replaces the jittered backoff, a request can go out on every network, a
// dead owner's pending calls fail without sending or drawing randomness, and
// a fan-out gather ends once: all answered, ended by its reply handler, or
// at its deadline.
#include "cluster/rpc_client.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "kernel/ppm/process_manager.h"
#include "kernel_fixture.h"

namespace phoenix::cluster {
namespace {

using net::Status;

struct PingMsg final : net::Message {
  net::Address reply_to;
  std::uint64_t request_id = 0;
  std::uint16_t attempt = 1;

  PHOENIX_MESSAGE_TYPE("test.ping")
  std::size_t wire_size() const noexcept override { return 16; }
};

struct PongMsg final : net::Message {
  std::uint64_t request_id = 0;

  PHOENIX_MESSAGE_TYPE("test.pong")
  std::size_t wire_size() const noexcept override { return 8; }
};

/// Owner of the client under test; hands every envelope to it.
class Caller final : public Daemon {
 public:
  Caller(Cluster& cluster, net::NodeId node)
      : Daemon(cluster, "caller", node, net::PortId{40}), rpc(*this) {
    start();
  }

  /// Pings `to`; every completion is appended to `done`.
  void ping(net::Address to, net::CallOptions opts = {}) {
    auto msg = std::make_shared<PingMsg>();
    msg->reply_to = address();
    last_ping = msg;
    rpc.call<PongMsg>(
        std::move(msg), to,
        [this](net::Result<const PongMsg*> r) { done.push_back(r.status); },
        opts, "ping");
  }

  RpcClient rpc;
  std::vector<Status> done;
  std::shared_ptr<const PingMsg> last_ping;

 private:
  void handle(const net::Envelope& env) override { rpc.deliver(env); }
};

/// Answers every ping `copies` times (twice by default, so the second
/// answer is a duplicate).
class Echo final : public Daemon {
 public:
  Echo(Cluster& cluster, net::NodeId node, int copies = 2)
      : Daemon(cluster, "echo", node, net::PortId{41}), copies_(copies) {
    start();
  }

 private:
  void handle(const net::Envelope& env) override {
    const auto& ping = static_cast<const PingMsg&>(*env.message);
    for (int i = 0; i < copies_; ++i) {
      auto pong = std::make_shared<PongMsg>();
      pong->request_id = ping.request_id;
      send_any(ping.reply_to, std::move(pong));
    }
  }

  int copies_;
};

class RpcClientTest : public ::testing::Test {
 protected:
  RpcClientTest()
      : cluster(phoenix::testing::small_cluster_spec()),
        caller(cluster, cluster.compute_nodes(net::PartitionId{0})[0]) {}

  /// A live node with nothing bound at the port: requests go unanswered.
  net::Address nobody() const {
    return {cluster.compute_nodes(net::PartitionId{1})[0], net::PortId{42}};
  }
  std::uint64_t messages_sent() {
    return cluster.fabric().total_stats().messages_sent;
  }
  void run_s(double s) { cluster.engine().run_for(sim::from_seconds(s)); }

  Cluster cluster;
  Caller caller;
};

TEST_F(RpcClientTest, ReplyCompletesOnceAndDuplicateIsCounted) {
  Echo echo(cluster, cluster.compute_nodes(net::PartitionId{1})[1]);
  caller.ping(echo.address());
  run_s(5.0);

  ASSERT_EQ(caller.done.size(), 1u);
  EXPECT_EQ(caller.done[0], Status::kOk);
  EXPECT_EQ(caller.rpc.completed_ok(), 1u);
  EXPECT_EQ(caller.rpc.duplicate_replies(), 1u);
  EXPECT_EQ(caller.rpc.retries_sent(), 0u);
  EXPECT_EQ(caller.rpc.pending_calls(), 0u);
}

TEST_F(RpcClientTest, UnansweredCallRetriesThenExhausts) {
  caller.ping(nobody(), {.deadline = 60 * sim::kSecond, .max_retries = 2});
  run_s(30.0);

  ASSERT_EQ(caller.done.size(), 1u);
  EXPECT_EQ(caller.done[0], Status::kRetriesExhausted);
  EXPECT_EQ(caller.rpc.retries_sent(), 2u);
  EXPECT_EQ(caller.rpc.exhausted_calls(), 1u);
  EXPECT_EQ(caller.last_ping->attempt, 3u);  // stamped into each attempt
}

TEST_F(RpcClientTest, FixedRtoResendsOnScheduleWithoutDrawing) {
  ASSERT_GT(caller.rpc.policy().jitter_frac, 0.0);
  // Each attempt is recorded and dropped on the wire, before the fabric
  // draws its latency, so any draw would be the client's jitter.
  std::vector<sim::SimTime> sent;
  cluster.fabric().set_drop_filter(
      [&](const net::Address& from, const net::Address&, const net::Message&) {
        if (from != caller.address()) return false;
        sent.push_back(cluster.now());
        return true;
      });
  const sim::SimTime rto = 500 * sim::kMillisecond;
  const sim::SimTime t = cluster.now();
  const sim::Rng before = cluster.engine().rng();
  caller.ping(nobody(), {.deadline = 3 * rto, .max_retries = 2, .rto = rto});
  cluster.engine().run_until(t + 3 * rto - 1);
  EXPECT_TRUE(caller.done.empty());
  run_s(5.0);

  EXPECT_EQ(sent, (std::vector<sim::SimTime>{t, t + rto, t + 2 * rto}));
  ASSERT_EQ(caller.done.size(), 1u);
  EXPECT_EQ(caller.done[0], Status::kTimeout);
  sim::Rng untouched = before;
  EXPECT_EQ(cluster.engine().rng().next(), untouched.next());
}

// The PPM liveness probe asks for every network: each attempt goes out once
// per network, so the probe still gets through with two interfaces cut.
TEST(RpcClientEveryNetworkTest, ProbeGoesOutOncePerNetworkPerAttempt) {
  phoenix::testing::KernelHarness h(phoenix::testing::small_cluster_spec(),
                                    phoenix::testing::fast_ft_params());
  Caller caller(h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[0]);
  const net::NodeId target = h.cluster.compute_nodes(net::PartitionId{1})[0];
  const net::Address ppm{target, kernel::port_of(kernel::ServiceKind::kProcessManager)};
  std::vector<Status> done;
  auto probe = [&] {
    auto msg = std::make_shared<kernel::ProbeMsg>();
    msg->reply_to = caller.address();
    caller.rpc.call<kernel::ProbeReplyMsg>(
        std::move(msg), ppm,
        [&](net::Result<const kernel::ProbeReplyMsg*> r) { done.push_back(r.status); },
        {.deadline = 2 * sim::kSecond, .max_retries = 1, .rto = sim::kSecond});
  };

  // Every copy dropped on the wire: two attempts of three copies each.
  int copies = 0;
  h.cluster.fabric().set_drop_filter(
      [&](const net::Address& from, const net::Address&, const net::Message&) {
        if (from != caller.address()) return false;
        ++copies;
        return true;
      });
  probe();
  h.run_s(3.0);
  EXPECT_EQ(copies, 2 * 3);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], Status::kTimeout);

  h.injector.clear_message_drops();
  h.injector.cut_interface(target, net::NetworkId{0});
  h.injector.cut_interface(target, net::NetworkId{1});
  probe();
  h.run_s(3.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[1], Status::kOk);
}

TEST_F(RpcClientTest, DeadOwnerFailsPendingCallWithoutSendingOrDrawing) {
  caller.ping(nobody(), {.deadline = 60 * sim::kSecond, .max_retries = 5});
  run_s(0.5);  // the first attempt is on the wire
  caller.kill();
  const std::uint64_t sent = messages_sent();
  const sim::Rng before = cluster.engine().rng();
  run_s(60.0);

  // The first timer after the death fails the call: no retransmission, no
  // jitter draw, one completion.
  ASSERT_EQ(caller.done.size(), 1u);
  EXPECT_EQ(caller.done[0], Status::kTimeout);
  EXPECT_EQ(caller.rpc.retries_sent(), 0u);
  EXPECT_EQ(caller.rpc.pending_calls(), 0u);
  EXPECT_EQ(messages_sent(), sent);
  sim::Rng untouched = before;
  EXPECT_EQ(cluster.engine().rng().next(), untouched.next());
}

TEST_F(RpcClientTest, DropAllForgetsPendingCallsWithoutCompleting) {
  caller.ping(nobody());
  run_s(0.5);
  const std::uint64_t sent = messages_sent();
  caller.rpc.drop_all();
  run_s(30.0);

  EXPECT_TRUE(caller.done.empty());
  EXPECT_EQ(caller.rpc.pending_calls(), 0u);
  EXPECT_EQ(messages_sent(), sent);
}

// --- fan-out gathers ---------------------------------------------------------

class RpcGatherTest : public RpcClientTest {
 protected:
  /// One ping per target under one gather. Counts the replies handled;
  /// reply number `end_after` ends the gather (0: none does). Records the
  /// time `done` ran.
  void gather(const std::vector<net::Address>& targets, sim::SimTime deadline,
              int end_after = 0) {
    std::vector<std::pair<net::Address, std::shared_ptr<PingMsg>>> requests;
    for (const net::Address& to : targets) {
      auto ping = std::make_shared<PingMsg>();
      ping->reply_to = caller.address();
      requests.emplace_back(to, std::move(ping));
    }
    caller.rpc.gather<PongMsg>(
        requests, deadline,
        [this, end_after](const PongMsg&, const net::Envelope&) {
          return ++replies == end_after;
        },
        [this] { done_at.push_back(cluster.now()); });
  }
  net::Address echo_at(std::uint32_t partition, std::size_t i) {
    echoes.push_back(std::make_unique<Echo>(
        cluster, cluster.compute_nodes(net::PartitionId{partition})[i], 1));
    return echoes.back()->address();
  }

  std::vector<std::unique_ptr<Echo>> echoes;
  int replies = 0;
  std::vector<sim::SimTime> done_at;
};

TEST_F(RpcGatherTest, DoneRunsOnceWhenEveryReplyIsIn) {
  const std::vector<net::Address> targets{echo_at(1, 1), echo_at(1, 2), echo_at(0, 1)};
  const std::size_t idle = cluster.engine().pending();
  const sim::SimTime t = cluster.now();
  gather(targets, 5 * sim::kSecond);
  run_s(1.0);

  EXPECT_EQ(replies, 3);
  ASSERT_EQ(done_at.size(), 1u);
  EXPECT_LT(done_at[0], t + sim::kSecond);
  EXPECT_EQ(caller.rpc.pending_calls(), 0u);
  EXPECT_EQ(cluster.engine().pending(), idle);  // the deadline timer is gone
  run_s(10.0);
  EXPECT_EQ(done_at.size(), 1u);
  EXPECT_EQ(caller.rpc.duplicate_replies(), 0u);
}

TEST_F(RpcGatherTest, ReplyHandlerEndsItWithoutDone) {
  const std::vector<net::Address> targets{echo_at(1, 1), echo_at(1, 2), echo_at(0, 1)};
  const std::size_t idle = cluster.engine().pending();
  gather(targets, 5 * sim::kSecond, /*end_after=*/1);
  run_s(10.0);

  EXPECT_EQ(replies, 1);
  EXPECT_TRUE(done_at.empty());
  EXPECT_EQ(caller.rpc.duplicate_replies(), 2u);
  EXPECT_EQ(caller.rpc.pending_calls(), 0u);
  EXPECT_EQ(cluster.engine().pending(), idle);
}

TEST_F(RpcGatherTest, MissingRepliesCloseItAtTheDeadline) {
  const std::vector<net::Address> targets{echo_at(1, 1), nobody()};
  const sim::SimTime t = cluster.now();
  const std::uint64_t sent = messages_sent();
  gather(targets, 2 * sim::kSecond);
  run_s(10.0);

  EXPECT_EQ(replies, 1);
  EXPECT_EQ(done_at, std::vector<sim::SimTime>{t + 2 * sim::kSecond});
  EXPECT_EQ(messages_sent(), sent + 3);  // two pings and one pong: no resend
  EXPECT_EQ(caller.rpc.pending_calls(), 0u);
}

TEST_F(RpcGatherTest, NothingSentRunsDoneAtOnceWithoutTimer) {
  const net::Address dead = echo_at(1, 1);
  cluster.crash_node(dead.node);
  const std::size_t idle = cluster.engine().pending();
  const sim::SimTime t = cluster.now();
  gather({}, 5 * sim::kSecond);
  gather({dead}, 5 * sim::kSecond);

  EXPECT_EQ(done_at, (std::vector<sim::SimTime>{t, t}));
  EXPECT_EQ(caller.rpc.pending_calls(), 0u);
  EXPECT_EQ(cluster.engine().pending(), idle);
}

}  // namespace
}  // namespace phoenix::cluster
