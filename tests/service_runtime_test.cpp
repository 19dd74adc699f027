// ServiceRuntime tests: declarative dispatch and counters, at-most-once
// serving via the runtime-owned ReplayCache, ReplayCache eviction edge
// cases, the runtime-owned RPC client, the unified kill -> restart ->
// restore lifecycle across services, takeover accounting, mark_dirty's
// checkpoint coalescing, and the acceptance check that a brand-new service
// built on the runtime rides the existing group-service failover machinery
// with no group-service edits.
#include "kernel/runtime/service_runtime.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kernel/api.h"
#include "kernel/bulletin/data_bulletin.h"
#include "kernel/config/configuration_service.h"
#include "kernel/event/event_service.h"
#include "kernel/kernel.h"
#include "kernel_fixture.h"
#include "net/rpc.h"
#include "test_client.h"

namespace phoenix::kernel {
namespace {

using net::ReplayCache;
using phoenix::testing::KernelHarness;
using phoenix::testing::TestClient;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

// --- ReplayCache eviction edge cases -----------------------------------------

const net::Address kClientA{net::NodeId{1}, net::PortId{40}};
const net::Address kClientB{net::NodeId{2}, net::PortId{40}};
const net::MessageTypeId kType = net::intern_message_type("test.replay_edge");

std::shared_ptr<const net::Message> dummy_reply() {
  struct Reply final : net::Message {
    PHOENIX_MESSAGE_TYPE("test.replay_edge_reply")
    std::size_t wire_size() const noexcept override { return 1; }
  };
  return std::make_shared<Reply>();
}

TEST(ReplayCacheEdgeTest, CapacityOneEvictsFifo) {
  ReplayCache cache(1);
  ASSERT_EQ(cache.begin(kClientA, kType, 1), ReplayCache::Admit::kNew);
  cache.complete(kClientA, kType, 1, dummy_reply());
  EXPECT_EQ(cache.size(), 1u);

  // A second completed entry evicts the first (FIFO at capacity 1).
  ASSERT_EQ(cache.begin(kClientB, kType, 2), ReplayCache::Admit::kNew);
  cache.complete(kClientB, kType, 2, dummy_reply());
  EXPECT_EQ(cache.size(), 1u);

  // The survivor still replays; the evicted one does not.
  std::shared_ptr<const net::Message> replay;
  EXPECT_EQ(cache.begin(kClientB, kType, 2, &replay), ReplayCache::Admit::kReplay);
  EXPECT_NE(replay, nullptr);
}

TEST(ReplayCacheEdgeTest, ReBeginAfterEvictionReExecutes) {
  ReplayCache cache(1);
  ASSERT_EQ(cache.begin(kClientA, kType, 1), ReplayCache::Admit::kNew);
  cache.complete(kClientA, kType, 1, dummy_reply());
  ASSERT_EQ(cache.begin(kClientB, kType, 2), ReplayCache::Admit::kNew);
  cache.complete(kClientB, kType, 2, dummy_reply());

  // The evicted request is admitted as brand-new: the at-most-once window
  // is bounded by capacity, and a retry past it re-executes.
  std::shared_ptr<const net::Message> replay;
  EXPECT_EQ(cache.begin(kClientA, kType, 1, &replay), ReplayCache::Admit::kNew);
  EXPECT_EQ(replay, nullptr);
  EXPECT_EQ(cache.replays_served(), 0u);
}

TEST(ReplayCacheEdgeTest, InFlightEntryEvictedBeforeComplete) {
  ReplayCache cache(1);
  // Entry A begins but does not complete (asynchronous execution).
  ASSERT_EQ(cache.begin(kClientA, kType, 1), ReplayCache::Admit::kNew);
  // Entry B pushes A out while A is still in flight.
  ASSERT_EQ(cache.begin(kClientB, kType, 2), ReplayCache::Admit::kNew);
  EXPECT_EQ(cache.size(), 1u);

  // B's own retry is suppressed as in-flight (it survived the eviction).
  EXPECT_EQ(cache.begin(kClientB, kType, 2), ReplayCache::Admit::kInFlight);
  EXPECT_EQ(cache.duplicates_suppressed(), 1u);

  // A's late completion must not resurrect the evicted key...
  cache.complete(kClientA, kType, 1, dummy_reply());
  EXPECT_EQ(cache.size(), 1u);

  // ...so a retry of A is admitted fresh, not answered from a ghost entry.
  std::shared_ptr<const net::Message> replay;
  EXPECT_EQ(cache.begin(kClientA, kType, 1, &replay), ReplayCache::Admit::kNew);
  EXPECT_EQ(replay, nullptr);
  EXPECT_EQ(cache.replays_served(), 0u);
}

// --- dispatch table and uniform counters -------------------------------------

class RuntimeKernelTest : public ::testing::Test {
 protected:
  RuntimeKernelTest() : h(small_cluster_spec(), fast_ft_params()) { h.run_s(1.0); }

  KernelHarness h;
};

TEST_F(RuntimeKernelTest, DispatchCountsHandledAndUnhandled) {
  auto& config = h.kernel.config();
  const auto received_before = config.counters().messages_received;
  const auto unhandled_before = config.counters().messages_unhandled;
  const auto gets_before = config.counters().messages_by_type.get("config.get");

  TestClient client(h.cluster, net::NodeId{2});
  auto get = std::make_shared<ConfigGetMsg>();
  get->key = "hardware/partitions";
  get->reply_to = client.address();
  get->request_id = 77;
  client.send_any(config.address(), get);

  // A message type the configuration service never registered.
  auto stray = std::make_shared<EsPublishMsg>();
  client.send_any(config.address(), stray);
  h.run_s(0.5);

  EXPECT_EQ(config.counters().messages_received, received_before + 2);
  EXPECT_EQ(config.counters().messages_unhandled, unhandled_before + 1);
  EXPECT_EQ(config.counters().messages_by_type.get("config.get"), gets_before + 1);
  ASSERT_EQ(client.of_type<ConfigGetReplyMsg>().size(), 1u);
  EXPECT_TRUE(client.of_type<ConfigGetReplyMsg>().front()->found);
}

TEST_F(RuntimeKernelTest, MutatingServeRepliesFromRuntimeCache) {
  auto& config = h.kernel.config();
  TestClient client(h.cluster, net::NodeId{2});
  auto set = std::make_shared<ConfigSetMsg>();
  set->key = "runtime/test";
  set->value = "v1";
  set->reply_to = client.address();
  set->request_id = 101;
  client.send_any(config.address(), set);
  h.run_s(0.5);
  ASSERT_EQ(client.of_type<ConfigSetReplyMsg>().size(), 1u);
  const std::uint64_t version = client.of_type<ConfigSetReplyMsg>().front()->version;

  // Retransmission: replayed reply, identical version, no second apply.
  client.send_any(config.address(), set);
  h.run_s(0.5);
  ASSERT_EQ(client.of_type<ConfigSetReplyMsg>().size(), 2u);
  EXPECT_EQ(client.of_type<ConfigSetReplyMsg>().back()->version, version);
  EXPECT_EQ(config.replay_cache().replays_served(), 1u);
  EXPECT_EQ(config.get("runtime/test"), "v1");
}

// --- the runtime's RPC client ------------------------------------------------

struct PingMsg final : net::Message {
  net::Address reply_to;
  std::uint64_t request_id = 0;

  PHOENIX_MESSAGE_TYPE("test.runtime_ping")
  std::size_t wire_size() const noexcept override { return 16; }
};

struct PongMsg final : net::Message {
  std::uint64_t request_id = 0;

  PHOENIX_MESSAGE_TYPE("test.runtime_pong")
  std::size_t wire_size() const noexcept override { return 8; }
};

/// Registers no handler: every reply it gets reaches rpc() through the
/// runtime. Also serves as the echo, answering each ping once.
class RpcUser final : public ServiceRuntime {
 public:
  RpcUser(cluster::Cluster& cluster, net::NodeId node, bool echo = false)
      : ServiceRuntime(cluster, "rpc_user", node, net::PortId{62}, nullptr, nullptr,
                       Options{.partition = cluster.partition_of(node)}) {
    if (echo) {
      on<PingMsg>([this](const PingMsg& ping) {
        auto pong = std::make_shared<PongMsg>();
        pong->request_id = ping.request_id;
        send_any(ping.reply_to, std::move(pong));
      });
    }
    start();
  }

  using ServiceRuntime::rpc;

  std::shared_ptr<PingMsg> ping() {
    auto msg = std::make_shared<PingMsg>();
    msg->reply_to = address();
    return msg;
  }
};

class RuntimeRpcTest : public ::testing::Test {
 protected:
  RuntimeRpcTest()
      : cluster(small_cluster_spec()),
        user(cluster, cluster.compute_nodes(net::PartitionId{0})[0]),
        echo(cluster, cluster.compute_nodes(net::PartitionId{1})[0], true) {}

  void run_s(double s) { cluster.engine().run_for(sim::from_seconds(s)); }

  cluster::Cluster cluster;
  RpcUser user;
  RpcUser echo;
};

TEST_F(RuntimeRpcTest, ReplyWithoutHandlerReachesRpcUnknownTypeIsUnhandled) {
  std::vector<net::Status> done;
  user.rpc().call<PongMsg>(
      user.ping(), echo.address(),
      [&](net::Result<const PongMsg*> r) { done.push_back(r.status); });
  run_s(1.0);
  EXPECT_EQ(done, std::vector<net::Status>{net::Status::kOk});
  EXPECT_EQ(user.counters().messages_by_type.get("test.runtime_pong"), 1u);
  EXPECT_EQ(user.counters().messages_unhandled, 0u);

  // Neither a handler nor the client waits on a ping here.
  TestClient client(cluster, cluster.compute_nodes(net::PartitionId{1})[1]);
  client.send_any(user.address(), user.ping());
  run_s(1.0);
  EXPECT_EQ(user.counters().messages_received, 2u);
  EXPECT_EQ(user.counters().messages_unhandled, 1u);
}

TEST_F(RuntimeRpcTest, RestartDropsPendingGather) {
  int replies = 0;
  int done = 0;
  user.rpc().gather<PongMsg>(
      std::vector{std::pair{echo.address(), user.ping()}}, 5 * sim::kSecond,
      [&](const PongMsg&, const net::Envelope&) { return ++replies > 1; },
      [&] { ++done; });
  // Restarted before the reply lands: the process that waited is gone.
  user.kill();
  user.start();
  run_s(10.0);

  EXPECT_EQ(replies, 0);
  EXPECT_EQ(done, 0);
  EXPECT_EQ(user.rpc().pending_calls(), 0u);
  EXPECT_EQ(user.rpc().duplicate_replies(), 1u);
  EXPECT_EQ(user.counters().messages_unhandled, 0u);
}

// --- one lifecycle: kill -> restart -> restore, across services ---------------

// Property: for any partition and any pre-failure registry size, killing the
// event service loses no subscriptions — GSD supervision detects the death,
// PPM restarts the instance, and the runtime's recover-on-start loop loads
// the registry back from the checkpoint federation.
TEST(RuntimeLifecycleTest, KillRestartRestoreRoundTripAcrossServices) {
  for (std::uint32_t part = 0; part < 2; ++part) {
    const net::PartitionId pid{part};
    const std::size_t subs = 2 + 3 * part;  // vary state size per partition
    KernelHarness h(small_cluster_spec(), fast_ft_params());
    h.run_s(1.0);

    auto& es = h.kernel.event_service(pid);
    std::vector<std::unique_ptr<TestClient>> clients;
    for (std::size_t i = 0; i < subs; ++i) {
      auto client = std::make_unique<TestClient>(
          h.cluster, h.cluster.compute_nodes(pid)[i % 4],
          net::PortId{static_cast<std::uint16_t>(50 + i)});
      Subscription sub;
      sub.consumer = client->address();
      sub.types = {"lifecycle.test"};
      es.subscribe_local(sub);
      clients.push_back(std::move(client));
    }
    h.run_s(2.0);  // checkpoint + federation replication settle
    ASSERT_EQ(es.subscription_count(), subs);
    const auto restores_before = es.counters().restores;

    h.injector.kill_daemon(es);
    ASSERT_FALSE(es.alive());
    h.run_s(8.0);  // detect (<= heartbeat interval) + restart + recover

    EXPECT_TRUE(es.alive()) << "partition " << part;
    EXPECT_EQ(es.counters().restores, restores_before + 1);
    EXPECT_EQ(es.subscription_count(), subs);

    // The restored registry still routes: a publish reaches every consumer.
    Event e;
    e.type = "lifecycle.test";
    es.publish_local(e);
    h.run_s(1.0);
    for (const auto& client : clients) {
      EXPECT_EQ(client->of_type<EsNotifyMsg>().size(), 1u) << "partition " << part;
    }
  }
}

TEST(RuntimeLifecycleTest, MigrationMarksTakeoverAndRestoresState) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  h.run_s(1.0);
  const net::PartitionId pid{1};
  const net::NodeId server = h.cluster.server_node(pid);

  Subscription sub;
  TestClient client(h.cluster, h.cluster.compute_nodes(pid)[0]);
  sub.consumer = client.address();
  sub.types = {"migrate.test"};
  h.kernel.event_service(pid).subscribe_local(sub);
  h.run_s(2.0);

  // Kill the whole server node: the surviving GSDs migrate the partition's
  // services through the directory, which marks the replacement instances
  // as takeovers; the fresh ES pulls its registry from the surviving
  // checkpoint-federation replica.
  h.injector.crash_node(server);
  h.run_s(40.0);

  auto& fresh = h.kernel.event_service(pid);
  EXPECT_TRUE(fresh.alive());
  EXPECT_NE(fresh.node_id(), server);
  EXPECT_EQ(h.cluster.partition_of(fresh.node_id()), pid);
  EXPECT_GE(fresh.counters().takeovers, 1u);
  EXPECT_GE(fresh.counters().restores, 1u);
  EXPECT_EQ(fresh.subscription_count(), 1u);
}

// --- one coalescing policy: mark_dirty(window) --------------------------------

// snapshot() runs once per checkpoint save, so the probe records when each
// save went out.
class CoalescingProbe final : public ServiceRuntime {
 public:
  CoalescingProbe(cluster::Cluster& cluster, net::NodeId node,
                  ServiceDirectory* directory)
      : ServiceRuntime(cluster, "probe", node, net::PortId{61}, directory, nullptr,
                       Options{.partition = cluster.partition_of(node),
                               .checkpoint_namespace = "probe"}) {
    start();
  }

  using ServiceRuntime::mark_dirty;
  const std::vector<sim::SimTime>& saves() const noexcept { return saves_; }

 private:
  CheckpointData snapshot() const override {
    saves_.push_back(now());
    return {};
  }

  mutable std::vector<sim::SimTime> saves_;
};

TEST(RuntimeCoalescingTest, MarkDirtyWindowBoundsSaves) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  h.run_s(1.0);
  CoalescingProbe probe(h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[0],
                        &h.kernel);
  sim::Engine& engine = h.cluster.engine();
  constexpr sim::SimTime kMs = sim::kMillisecond;

  // Window 0: three changes in one tick give a leading save and one
  // trailing flush, both in that tick.
  const sim::SimTime t0 = engine.now();
  for (int i = 0; i < 3; ++i) probe.mark_dirty();
  h.run(1 * kMs);
  EXPECT_EQ(probe.saves(), (std::vector<sim::SimTime>{t0, t0}));

  // Window 10 ms: changes at t, t+1 ms and t+2 ms give the leading save at t
  // and one flush at t+10 ms; a change at t+25 ms, past the window, saves at
  // once.
  const sim::SimTime t = engine.now() + 1 * sim::kSecond;
  for (const sim::SimTime at : {t, t + 1 * kMs, t + 2 * kMs, t + 25 * kMs}) {
    engine.schedule_at(at, [&probe] { probe.mark_dirty(10 * kMs); });
  }
  h.run_s(2.0);
  EXPECT_EQ(probe.saves(), (std::vector<sim::SimTime>{t0, t0, t, t + 10 * kMs,
                                                      t + 25 * kMs}));
}

// --- acceptance: a new service needs only the runtime -------------------------

// A toy service written against ServiceRuntime alone: one message type, one
// counter of checkpointed state. Registering it as an extension and putting
// it under GSD supervision is ALL that is needed for failover — no edits to
// the group service, the PPM, or the kernel wiring.
struct ToyPokeMsg final : net::Message {
  PHOENIX_MESSAGE_TYPE("toy.poke")
  std::size_t wire_size() const noexcept override { return 1; }
};

constexpr net::PortId kToyPort{60};

class ToyService final : public ServiceRuntime {
 public:
  ToyService(cluster::Cluster& cluster, net::NodeId node,
             ServiceDirectory* directory, const FtParams* params)
      : ServiceRuntime(cluster, "toy", node, kToyPort, directory, params,
                       Options{.kind = ServiceKind::kEventService,
                               .partition = cluster.partition_of(node),
                               .checkpoint_namespace = "toy",
                               .announce_up = true,
                               .recover_on_start = true,
                               .extension = "toy"}) {
    on<ToyPokeMsg>([this](const ToyPokeMsg&) {
      ++pokes_;
      mark_dirty();
    });
  }

  std::uint64_t pokes() const noexcept { return pokes_; }

 private:
  CheckpointData snapshot() const override { return std::to_string(pokes_); }
  void restore(const std::string& data) override { pokes_ = std::stoull(data); }

  std::uint64_t pokes_ = 0;
};

// Registers the toy as an extension, starts it on partition 0's server
// under that partition's GSD, and pokes it three times from `client`.
// Returns nullptr if the kernel could not create it.
ToyService* start_poked_toy(KernelHarness& h, TestClient& client) {
  const net::PartitionId pid{0};
  const net::NodeId server = h.cluster.server_node(pid);
  h.kernel.register_extension("toy", [&h](net::NodeId node) {
    return std::make_unique<ToyService>(h.cluster, node, &h.kernel,
                                        &h.kernel.params());
  });
  auto* toy = static_cast<ToyService*>(h.kernel.create_extension("toy", server));
  if (toy == nullptr) return nullptr;
  toy->start();
  h.kernel.gsd(pid).supervise(
      SupervisedSpec{"toy", ServiceKind::kEventService, "toy", kToyPort});
  for (int i = 0; i < 3; ++i) {
    client.send_any({server, kToyPort}, std::make_shared<ToyPokeMsg>());
  }
  h.run_s(2.0);
  return toy;
}

TEST(RuntimeExtensionTest, ToyServiceFailsOverWithoutGroupServiceEdits) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  h.run_s(1.0);
  const net::NodeId server = h.cluster.server_node(net::PartitionId{0});
  TestClient client(h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[0]);
  ToyService* toy = start_poked_toy(h, client);
  ASSERT_NE(toy, nullptr);
  EXPECT_EQ(toy->pokes(), 3u);

  // Kill it. Existing supervision machinery must bring it back with state.
  h.injector.kill_daemon(*toy);
  h.run_s(8.0);
  EXPECT_TRUE(toy->alive());
  EXPECT_EQ(toy->pokes(), 3u);  // restored from its checkpoint
  EXPECT_GE(toy->counters().restores, 1u);

  // Still serving after the round trip.
  client.send_any({server, kToyPort}, std::make_shared<ToyPokeMsg>());
  h.run_s(1.0);
  EXPECT_EQ(toy->pokes(), 4u);
}

// Crashing the host node takes the partition's GSD down with the toy. The
// GSD that migration creates on the backup node must keep supervising the
// extension, so the toy comes back there with its checkpointed state.
TEST(RuntimeExtensionTest, ToyServiceSurvivesHostNodeCrash) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  h.run_s(1.0);
  const net::PartitionId pid{0};
  const net::NodeId server = h.cluster.server_node(pid);
  TestClient client(h.cluster, h.cluster.compute_nodes(pid)[0]);
  const ToyService* original = start_poked_toy(h, client);
  ASSERT_NE(original, nullptr);
  ASSERT_EQ(original->pokes(), 3u);

  h.injector.crash_node(server);
  h.run_s(60.0);

  const auto* toy = static_cast<const ToyService*>(h.kernel.extension("toy"));
  ASSERT_NE(toy, nullptr);
  EXPECT_TRUE(toy->alive());
  EXPECT_NE(toy->node_id(), server);
  EXPECT_EQ(h.cluster.partition_of(toy->node_id()), pid);
  EXPECT_EQ(toy->pokes(), 3u);  // restored from the checkpoint federation
  EXPECT_EQ(toy->counters().takeovers, 1u);
}

}  // namespace
}  // namespace phoenix::kernel
