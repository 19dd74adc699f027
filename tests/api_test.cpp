// KernelApi tests: the uniform RPC facade — correlation, Result/Status
// completion, per-call options, and the full surface (config, security,
// checkpoint, bulletin, events, PPM).
#include "kernel/api.h"

#include <gtest/gtest.h>

#include "kernel_fixture.h"

namespace phoenix::kernel {
namespace {

using net::CallOptions;
using net::Result;
using net::Status;
using phoenix::testing::KernelHarness;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

class ApiTest : public ::testing::Test {
 protected:
  ApiTest()
      : h(small_cluster_spec(), fast_ft_params()),
        api(h.cluster, h.cluster.compute_nodes(net::PartitionId{1})[0], h.kernel) {
    h.run_s(2.0);
  }

  KernelHarness h;
  KernelApi api;
};

TEST_F(ApiTest, ConfigRoundTrip) {
  bool set_done = false;
  api.config_set("api/key", "hello", [&](Result<std::uint64_t> r) {
    set_done = true;
    EXPECT_EQ(r.status, Status::kOk);
    EXPECT_GT(r.value, 0u);
  });
  h.run_s(1.0);
  EXPECT_TRUE(set_done);

  Result<std::optional<std::string>> got;
  api.config_get("api/key",
                 [&](Result<std::optional<std::string>> r) { got = std::move(r); });
  h.run_s(1.0);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value.has_value());
  EXPECT_EQ(*got.value, "hello");

  // A missing key is still a successful call: the service answered.
  Result<std::optional<std::string>> missing;
  api.config_get("api/nope", [&](Result<std::optional<std::string>> r) {
    missing = std::move(r);
  });
  h.run_s(1.0);
  EXPECT_EQ(missing.status, Status::kOk);
  EXPECT_FALSE(missing.value.has_value());
}

TEST_F(ApiTest, SecurityFlow) {
  h.kernel.security().add_user("alice", "pw", {"dev"});
  h.kernel.security().grant("dev", "deploy", "env/");

  Result<Token> token;
  api.authenticate("alice", "pw", [&](Result<Token> r) { token = std::move(r); });
  h.run_s(1.0);
  ASSERT_TRUE(token.ok());

  Status allowed = Status::kUnreachable;
  Status refused = Status::kUnreachable;
  api.authorize(token.value, "deploy", "env/prod",
                [&](Result<bool> r) { allowed = r.status; });
  api.authorize(token.value, "shutdown", "env/prod",
                [&](Result<bool> r) { refused = r.status; });
  h.run_s(1.0);
  EXPECT_EQ(allowed, Status::kOk);
  EXPECT_EQ(refused, Status::kDenied);

  // Bad credentials are a refusal, not a transport failure.
  Result<Token> bad;
  api.authenticate("alice", "wrong", [&](Result<Token> r) { bad = std::move(r); });
  h.run_s(1.0);
  EXPECT_EQ(bad.status, Status::kDenied);
  EXPECT_EQ(api.denied_calls(), 2u);
}

TEST_F(ApiTest, CheckpointRoundTrip) {
  Status saved = Status::kUnreachable;
  api.checkpoint_save("apisvc", "state", "blob-data",
                      [&](Result<std::uint64_t> r) { saved = r.status; });
  h.run_s(1.0);
  EXPECT_EQ(saved, Status::kOk);

  Result<std::optional<std::string>> loaded;
  api.checkpoint_load("apisvc", "state", [&](Result<std::optional<std::string>> r) {
    loaded = std::move(r);
  });
  h.run_s(2.0);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value.has_value());
  EXPECT_EQ(*loaded.value, "blob-data");
}

TEST_F(ApiTest, ClusterQueryThroughHomePartition) {
  h.run_s(3.0);  // detectors fill the bulletin
  Result<BulletinSnapshot> snap;
  api.query(BulletinTable::kNodes, /*cluster_scope=*/true, {},
            [&](Result<BulletinSnapshot> r) { snap = std::move(r); });
  h.run_s(2.0);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.value.nodes.size(), h.cluster.node_count());
  EXPECT_EQ(snap.value.partitions_included, h.cluster.spec().partitions);
}

TEST_F(ApiTest, EventsSubscribeAndPublish) {
  std::vector<std::string> seen;
  Status subscribed = Status::kUnreachable;
  api.subscribe({"api.*"}, [&](const Event& e) { seen.push_back(e.type); },
                [&](Result<bool> r) { subscribed = r.status; });
  h.run_s(1.0);
  EXPECT_EQ(subscribed, Status::kOk);  // one-way: kOk at transmit time

  Event e;
  e.type = "api.ping";
  api.publish(e);
  Event other;
  other.type = "unrelated";
  api.publish(other);
  h.run_s(1.0);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "api.ping");
}

TEST_F(ApiTest, SpawnWithExitNotification) {
  Result<cluster::Pid> spawned;
  cluster::Pid exited_pid = 0;
  api.spawn(h.cluster.compute_nodes(net::PartitionId{0})[1],
            ProcessSpec{"apijob", "alice", 1.0, 2 * sim::kSecond, 0},
            [&](Result<cluster::Pid> r) { spawned = std::move(r); },
            [&](cluster::Pid p) { exited_pid = p; });
  h.run_s(1.0);
  EXPECT_TRUE(spawned.ok());
  EXPECT_GT(spawned.value, 0u);
  EXPECT_EQ(exited_pid, 0u);
  h.run_s(3.0);
  EXPECT_EQ(exited_pid, spawned.value);
}

TEST_F(ApiTest, UnreachableServiceFailsWithStatus) {
  // Kill the configuration service AND its host node so no attempt can even
  // be transmitted: the call must fail kUnreachable (not kTimeout — nothing
  // was ever on the wire).
  h.injector.crash_node(h.cluster.server_node(net::PartitionId{0}));
  Status status = Status::kOk;
  api.config_get("any",
                 [&](Result<std::optional<std::string>> r) { status = r.status; },
                 CallOptions{.deadline = 2 * sim::kSecond});
  h.run_s(5.0);
  EXPECT_EQ(status, Status::kUnreachable);
  EXPECT_EQ(api.unreachable_calls(), 1u);
  EXPECT_EQ(api.timed_out_calls(), 0u);
  EXPECT_EQ(api.pending_calls(), 0u);
}

TEST_F(ApiTest, NonIdempotentCallIsNeverRetried) {
  // With max_retries=0 the call gets exactly one attempt even though the
  // deadline would allow more.
  h.injector.drop_next_to(
      h.kernel.service_address(ServiceKind::kConfiguration, net::PartitionId{0}),
      1);
  Status status = Status::kOk;
  api.config_set("api/oneshot", "v",
                 [&](Result<std::uint64_t> r) { status = r.status; },
                 CallOptions{.deadline = 8 * sim::kSecond, .max_retries = 0});
  h.run_s(10.0);
  EXPECT_EQ(status, Status::kRetriesExhausted);
  EXPECT_EQ(api.retries_sent(), 0u);
}

}  // namespace
}  // namespace phoenix::kernel
