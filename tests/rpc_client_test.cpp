// RpcClient tests (DESIGN.md §9): replies complete a call exactly once,
// unanswered calls retry until their budget is spent, and a dead owner's
// pending calls fail without sending or drawing randomness.
#include "cluster/rpc_client.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

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
  void handle(const net::Envelope& env) override { rpc.deliver(*env.message); }
};

/// Answers every ping twice, so the second answer is a duplicate.
class Echo final : public Daemon {
 public:
  Echo(Cluster& cluster, net::NodeId node)
      : Daemon(cluster, "echo", node, net::PortId{41}) {
    start();
  }

 private:
  void handle(const net::Envelope& env) override {
    const auto& ping = static_cast<const PingMsg&>(*env.message);
    for (int i = 0; i < 2; ++i) {
      auto pong = std::make_shared<PongMsg>();
      pong->request_id = ping.request_id;
      send_any(ping.reply_to, std::move(pong));
    }
  }
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

}  // namespace
}  // namespace phoenix::cluster
