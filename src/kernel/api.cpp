#include "kernel/api.h"

#include <utility>

namespace phoenix::kernel {

KernelApi::KernelApi(cluster::Cluster& cluster, net::NodeId node,
                     PhoenixKernel& kernel, net::PortId port)
    : Daemon(cluster, "api", node, port),
      kernel_(kernel),
      home_partition_(cluster.partition_of(node)),
      rpc_(*this),
      metrics_(&cluster.metrics()) {
  // The client records into "api.call_latency_us" on its first completion;
  // registering it now lists it in every snapshot, calls or not.
  metrics_->histogram(name() + ".call_latency_us");
  // Per-status call outcomes, published at snapshot time. With several
  // KernelApi instances on one cluster the last-registered probe wins the
  // shared gauge names — fine for the diagnostic use these serve.
  metrics_probe_ = metrics_->register_probe([this](obs::Registry& r) {
    r.gauge("api.pending_calls")->set(static_cast<double>(rpc_.pending_calls()));
    r.gauge("api.completed_ok")->set(static_cast<double>(rpc_.completed_ok()));
    r.gauge("api.retries_sent")->set(static_cast<double>(rpc_.retries_sent()));
    r.gauge("api.reroutes")->set(static_cast<double>(rpc_.reroutes()));
    r.gauge("api.timeouts")->set(static_cast<double>(rpc_.timed_out_calls()));
    r.gauge("api.exhausted")->set(static_cast<double>(rpc_.exhausted_calls()));
    r.gauge("api.unreachable")->set(static_cast<double>(rpc_.unreachable_calls()));
    r.gauge("api.denied")->set(static_cast<double>(denied_));
    r.gauge("api.duplicate_replies")
        ->set(static_cast<double>(rpc_.duplicate_replies()));
  });
  start();
}

KernelApi::~KernelApi() { metrics_->unregister_probe(metrics_probe_); }

cluster::RpcClient::Router KernelApi::route_to(ServiceKind service,
                                               bool federated) {
  return [this, service, federated] {
    const net::PartitionId home_p =
        federated ? home_partition_ : net::PartitionId{0};
    const net::Address home = kernel_.service_address(service, home_p);
    if (!federated) return cluster::RpcClient::Route{home, home};
    // Federation failover: the home instance is preferred, but while its host
    // node is down (recovery not yet complete) any live peer instance is a
    // full access point — walk the partition ring and take the first one.
    const std::size_t parts = kernel_.partition_count();
    for (std::size_t i = 0; i < parts; ++i) {
      const net::PartitionId p{
          static_cast<std::uint32_t>((home_p.value + i) % parts)};
      const net::Address a = kernel_.service_address(service, p);
      if (cluster().node(a.node).alive()) return cluster::RpcClient::Route{a, home};
    }
    return cluster::RpcClient::Route{home, home};
  };
}

template <typename Reply, typename Req, typename To, typename T, typename Map>
void KernelApi::call(std::shared_ptr<Req> request, To to, Callback<T> done, Map map,
                     CallOptions opts, const char* op) {
  request->reply_to = address();
  rpc_.call<Reply>(
      std::move(request), std::move(to),
      [done = std::move(done), map = std::move(map)](Result<const Reply*> r) {
        Result<T> out = r ? map(*r.value) : Result<T>::failure(r.status);
        if (done) done(std::move(out));
      },
      opts, op);
}

// --- configuration -------------------------------------------------------------

void KernelApi::config_get(const std::string& key,
                           Callback<std::optional<std::string>> done,
                           CallOptions opts) {
  auto msg = std::make_shared<ConfigGetMsg>();
  msg->key = key;
  using R = Result<std::optional<std::string>>;
  call<ConfigGetReplyMsg>(
      std::move(msg), route_to(ServiceKind::kConfiguration, false),
      std::move(done),
      [](const ConfigGetReplyMsg& reply) {
        return reply.found ? R::success(reply.value) : R::success(std::nullopt);
      },
      opts, "config_get");
}

void KernelApi::config_set(const std::string& key, const std::string& value,
                           Callback<std::uint64_t> done, CallOptions opts) {
  auto msg = std::make_shared<ConfigSetMsg>();
  msg->key = key;
  msg->value = value;
  call<ConfigSetReplyMsg>(
      std::move(msg), route_to(ServiceKind::kConfiguration, false),
      std::move(done),
      [](const ConfigSetReplyMsg& reply) {
        return Result<std::uint64_t>::success(reply.version);
      },
      opts, "config_set");
}

// --- security -------------------------------------------------------------------

void KernelApi::authenticate(const std::string& user, const std::string& secret,
                             Callback<Token> done, CallOptions opts) {
  auto msg = std::make_shared<AuthRequestMsg>();
  msg->user = user;
  msg->secret = secret;
  call<AuthReplyMsg>(
      std::move(msg), route_to(ServiceKind::kSecurity, false), std::move(done),
      [this](const AuthReplyMsg& reply) {
        return reply.ok ? Result<Token>::success(reply.token) : deny<Token>();
      },
      opts, "authenticate");
}

void KernelApi::authorize(const Token& token, const std::string& action,
                          const std::string& resource, Callback<bool> done,
                          CallOptions opts) {
  auto msg = std::make_shared<AuthzRequestMsg>();
  msg->token = token;
  msg->action = action;
  msg->resource = resource;
  call<AuthzReplyMsg>(
      std::move(msg), route_to(ServiceKind::kSecurity, false), std::move(done),
      [this](const AuthzReplyMsg& reply) {
        return reply.allowed ? Result<bool>::success(true) : deny<bool>();
      },
      opts, "authorize");
}

// --- checkpoint -----------------------------------------------------------------

void KernelApi::checkpoint_save(const std::string& service,
                                const std::string& key, std::string data,
                                Callback<std::uint64_t> done, CallOptions opts) {
  auto msg = std::make_shared<CheckpointSaveMsg>();
  msg->service = service;
  msg->key = key;
  msg->data = std::move(data);
  call<CheckpointSaveReplyMsg>(
      std::move(msg), route_to(ServiceKind::kCheckpointService, true),
      std::move(done),
      [](const CheckpointSaveReplyMsg& reply) {
        return Result<std::uint64_t>::success(reply.version);
      },
      opts, "checkpoint_save");
}

void KernelApi::checkpoint_load(const std::string& service,
                                const std::string& key,
                                Callback<std::optional<std::string>> done,
                                CallOptions opts) {
  auto msg = std::make_shared<CheckpointLoadMsg>();
  msg->service = service;
  msg->key = key;
  using R = Result<std::optional<std::string>>;
  call<CheckpointLoadReplyMsg>(
      std::move(msg), route_to(ServiceKind::kCheckpointService, true),
      std::move(done),
      [](const CheckpointLoadReplyMsg& reply) {
        return reply.found ? R::success(reply.data.str())
                           : R::success(std::nullopt);
      },
      opts, "checkpoint_load");
}

// --- data bulletin --------------------------------------------------------------

void KernelApi::query(BulletinTable table, bool cluster_scope,
                      BulletinFilter filter, Callback<BulletinSnapshot> done,
                      CallOptions opts) {
  auto msg = std::make_shared<DbQueryMsg>();
  msg->table = table;
  msg->cluster_scope = cluster_scope;
  msg->filter = std::move(filter);
  call<DbQueryReplyMsg>(
      std::move(msg), route_to(ServiceKind::kDataBulletin, true),
      std::move(done),
      [](const DbQueryReplyMsg& reply) {
        BulletinSnapshot snap;
        snap.nodes = reply.node_rows;
        snap.apps = reply.app_rows;
        snap.partitions_included = reply.partitions_included;
        return Result<BulletinSnapshot>::success(std::move(snap));
      },
      opts, "query");
}

// --- events ---------------------------------------------------------------------

namespace {
std::function<void(net::Status)> transmitted(KernelApi::Callback<bool> done) {
  return [done = std::move(done)](net::Status s) {
    if (!done) return;
    done(s == net::Status::kOk ? net::Result<bool>::success(true)
                               : net::Result<bool>::failure(s));
  };
}
}  // namespace

void KernelApi::subscribe(std::vector<std::string> types, EventCallback on_event,
                          Callback<bool> done, CallOptions opts) {
  on_event_ = std::move(on_event);
  auto msg = std::make_shared<EsSubscribeMsg>();
  msg->subscription.consumer = address();
  msg->subscription.types = std::move(types);
  rpc_.send(std::move(msg), route_to(ServiceKind::kEventService, true),
            transmitted(std::move(done)), opts, "subscribe");
}

void KernelApi::publish(Event event, Callback<bool> done, CallOptions opts) {
  auto msg = std::make_shared<EsPublishMsg>();
  msg->event = std::move(event);
  rpc_.send(std::move(msg), route_to(ServiceKind::kEventService, true),
            transmitted(std::move(done)), opts, "publish");
}

// --- ppm ------------------------------------------------------------------------

void KernelApi::spawn(net::NodeId node, ProcessSpec spec,
                      Callback<cluster::Pid> done,
                      std::function<void(cluster::Pid)> on_exit,
                      CallOptions opts) {
  auto msg = std::make_shared<SpawnMsg>();
  msg->spec = std::move(spec);
  if (on_exit) msg->exit_notify = address();
  call<SpawnReplyMsg>(
      std::move(msg), net::Address{node, port_of(ServiceKind::kProcessManager)},
      std::move(done),
      [this, on_exit = std::move(on_exit)](const SpawnReplyMsg& reply) {
        if (!reply.ok) return deny<cluster::Pid>();
        if (on_exit) exit_watch_[reply.pid] = on_exit;
        return Result<cluster::Pid>::success(reply.pid);
      },
      opts, "spawn");
}

// --- dispatch -------------------------------------------------------------------

void KernelApi::handle(const net::Envelope& env) {
  const net::Message& m = *env.message;
  if (rpc_.deliver(env)) return;
  if (const auto* notify = net::message_cast<EsNotifyMsg>(m)) {
    if (on_event_) on_event_(notify->event);
    return;
  }
  if (const auto* exited = net::message_cast<ExitNotifyMsg>(m)) {
    auto it = exit_watch_.find(exited->pid);
    if (it != exit_watch_.end()) {
      auto cb = std::move(it->second);
      exit_watch_.erase(it);
      cb(exited->pid);
    }
  }
}

}  // namespace phoenix::kernel
