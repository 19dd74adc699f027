// KernelApi — the uniform client interface to the Phoenix kernel.
//
// The paper (§4.2): "Phoenix kernel provides documented interfaces and
// parallel command calls for user environments in different forms with
// uniformed semantics (Such as Socket, RPC and ORB etc.)". This class is
// that uniform form: typed wrappers over the kernel's message protocols,
// each one call of cluster::RpcClient — the same client every kernel daemon
// that waits on a reply uses (DESIGN.md §9).
//
// Every call completes exactly once with a net::Result<T>: a typed payload
// plus a Status the caller can branch on. Per-call CallOptions select the
// deadline and retry budget; between attempts the client backs off
// exponentially (RetryPolicy) and re-resolves the target through the
// service directory, so a call issued against an instance that dies
// mid-flight re-routes to the recovered or federated instance instead of
// timing out. Mutating services keep a ReplayCache, which makes the
// retries safe: a retransmitted config_set / spawn / checkpoint_save is
// answered from the cache, never applied twice.
//
// Every user environment in this repository could be written against this
// class alone; GridView-style monitors, submission portals, and management
// tools need nothing else from the kernel.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/daemon.h"
#include "cluster/rpc_client.h"
#include "kernel/bulletin/data_bulletin.h"
#include "obs/metrics.h"
#include "kernel/checkpoint/checkpoint_service.h"
#include "kernel/config/configuration_service.h"
#include "kernel/event/event_service.h"
#include "kernel/kernel.h"
#include "kernel/ppm/process_manager.h"
#include "kernel/security/security_service.h"
#include "net/rpc.h"

namespace phoenix::kernel {

/// A cluster-wide bulletin answer: the merged rows plus how many partition
/// instances contributed (dead instances only shrink the merge).
struct BulletinSnapshot {
  std::vector<NodeRecord> nodes;
  std::vector<AppRecord> apps;
  std::uint32_t partitions_included = 0;
};

class KernelApi final : public cluster::Daemon {
 public:
  using Status = net::Status;
  using CallOptions = net::CallOptions;
  template <typename T>
  using Result = net::Result<T>;
  /// The one completion shape every call uses.
  template <typename T>
  using Callback = std::function<void(Result<T>)>;

  /// Binds the API endpoint on `node` with a caller-chosen port (several
  /// clients may coexist on one node with different ports).
  KernelApi(cluster::Cluster& cluster, net::NodeId node, PhoenixKernel& kernel,
            net::PortId port = net::PortId{30});
  ~KernelApi() override;

  // --- client-wide defaults ---------------------------------------------------

  /// Backoff schedule and default retry budget, tunable per client.
  net::RetryPolicy& retry_policy() noexcept { return rpc_.policy(); }
  const net::RetryPolicy& retry_policy() const noexcept { return rpc_.policy(); }

  // --- configuration ----------------------------------------------------------

  /// kOk with nullopt means "the service answered: no such key".
  void config_get(const std::string& key,
                  Callback<std::optional<std::string>> done,
                  CallOptions opts = {});

  /// Value: the new tree version.
  void config_set(const std::string& key, const std::string& value,
                  Callback<std::uint64_t> done, CallOptions opts = {});

  // --- security ----------------------------------------------------------------

  /// kDenied when the credentials are refused.
  void authenticate(const std::string& user, const std::string& secret,
                    Callback<Token> done, CallOptions opts = {});

  /// kOk/true when allowed; kDenied when the service refuses.
  void authorize(const Token& token, const std::string& action,
                 const std::string& resource, Callback<bool> done,
                 CallOptions opts = {});

  // --- checkpoint ----------------------------------------------------------------

  /// Value: the stored version.
  void checkpoint_save(const std::string& service, const std::string& key,
                       std::string data, Callback<std::uint64_t> done,
                       CallOptions opts = {});

  /// kOk with nullopt means "the federation answered: not found".
  void checkpoint_load(const std::string& service, const std::string& key,
                       Callback<std::optional<std::string>> done,
                       CallOptions opts = {});

  // --- data bulletin ----------------------------------------------------------------

  void query(BulletinTable table, bool cluster_scope, BulletinFilter filter,
             Callback<BulletinSnapshot> done, CallOptions opts = {});

  // --- events ----------------------------------------------------------------

  using EventCallback = std::function<void(const Event&)>;

  /// Subscribes this endpoint; matching events invoke `on_event` forever.
  /// One-way: `done` (optional) completes kOk once the registration is on
  /// the wire, kUnreachable if no attempt could be transmitted in time.
  void subscribe(std::vector<std::string> types, EventCallback on_event,
                 Callback<bool> done = {}, CallOptions opts = {});

  /// One-way, same transmit semantics as subscribe. Never retried after a
  /// successful transmission (a duplicate publish would be a new event).
  void publish(Event event, Callback<bool> done = {}, CallOptions opts = {});

  // --- parallel process management -------------------------------------------------

  /// Value: the new pid. `on_exit` (optional) fires when the process ends.
  void spawn(net::NodeId node, ProcessSpec spec, Callback<cluster::Pid> done,
             std::function<void(cluster::Pid)> on_exit = {},
             CallOptions opts = {});

  // --- observability ----------------------------------------------------------

  /// Calls still awaiting replies.
  std::size_t pending_calls() const noexcept { return rpc_.pending_calls(); }
  /// Retransmissions sent (attempts after the first, across all calls).
  std::uint64_t retries_sent() const noexcept { return rpc_.retries_sent(); }
  /// Attempts that went to a different address than the previous one
  /// (directory re-resolution or federation failover picked a new target).
  std::uint64_t reroutes() const noexcept { return rpc_.reroutes(); }
  /// Calls failed with kTimeout.
  std::uint64_t timed_out_calls() const noexcept { return rpc_.timed_out_calls(); }
  /// Calls failed with kRetriesExhausted.
  std::uint64_t exhausted_calls() const noexcept { return rpc_.exhausted_calls(); }
  /// Calls failed with kUnreachable (no attempt ever transmitted).
  std::uint64_t unreachable_calls() const noexcept { return rpc_.unreachable_calls(); }
  /// Calls the service answered with a refusal (kDenied).
  std::uint64_t denied_calls() const noexcept { return denied_; }
  /// Replies that matched no pending call (the original answer already
  /// arrived and this is a retry's duplicate, or the call already failed).
  std::uint64_t duplicate_replies() const noexcept { return rpc_.duplicate_replies(); }

 private:
  void handle(const net::Envelope& env) override;

  /// Router for a directory-resolved service. Federated services prefer
  /// the home partition's instance but, while its host node is down, take
  /// the first instance (ring-wise from home) on a live node.
  cluster::RpcClient::Router route_to(ServiceKind service, bool federated);

  /// Issues `request` to `to` (an address or a Router) through the client;
  /// `map` turns the typed reply into the caller's Result (failures pass
  /// through unmapped).
  template <typename Reply, typename Req, typename To, typename T, typename Map>
  void call(std::shared_ptr<Req> request, To to, Callback<T> done, Map map,
            CallOptions opts, const char* op);

  /// A refusal from the service: counted, and completed as kDenied.
  template <typename T>
  Result<T> deny() {
    ++denied_;
    return Result<T>::failure(Status::kDenied);
  }

  PhoenixKernel& kernel_;
  net::PartitionId home_partition_;
  cluster::RpcClient rpc_;
  std::unordered_map<cluster::Pid, std::function<void(cluster::Pid)>> exit_watch_;
  EventCallback on_event_;
  obs::Registry* metrics_;  // cluster-owned
  std::uint64_t metrics_probe_ = 0;
  std::uint64_t denied_ = 0;
};

}  // namespace phoenix::kernel
