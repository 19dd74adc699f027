#include "biz/business_runtime.h"

#include <algorithm>
#include <sstream>

#include "kernel/bulletin/data_bulletin.h"
#include "kernel/event/event_service.h"
#include "kernel/ppm/process_manager.h"

namespace phoenix::biz {

namespace {
constexpr net::PortId kBizPort{21};
}  // namespace

BusinessRuntime::BusinessRuntime(cluster::Cluster& cluster, net::NodeId node,
                                 kernel::PhoenixKernel& kernel, BizConfig config)
    : Daemon(cluster, "biz.runtime", node, kBizPort),
      kernel_(kernel),
      config_(std::move(config)),
      rpc_(*this),
      request_driver_(cluster.engine(),
                      config_.request_interval > 0 ? config_.request_interval
                                                   : sim::kSecond,
                      [this] { route_request(); }),
      load_refresher_(cluster.engine(), config_.load_refresh_interval,
                      [this] { refresh_load(); }) {}

void BusinessRuntime::on_start() {
  kernel::Subscription sub;
  sub.consumer = address();
  sub.types = {std::string(kernel::event_types::kAppExited),
               std::string(kernel::event_types::kNodeFailed)};
  auto msg = std::make_shared<kernel::EsSubscribeMsg>();
  msg->subscription = std::move(sub);
  send_any(kernel_.service_address(kernel::ServiceKind::kEventService,
                                   cluster().partition_of(node_id())),
           std::move(msg));

  for (const auto& tier : config_.tiers) {
    for (unsigned i = 0; i < tier.replicas; ++i) deploy(tier);
  }
  if (config_.request_interval > 0) request_driver_.start();
  if (config_.placement == PlacementPolicy::kLeastLoaded) {
    load_refresher_.start_after(1 * sim::kSecond);
  }
}

void BusinessRuntime::on_stop() {
  request_driver_.stop();
  load_refresher_.stop();
}

std::vector<net::NodeId> BusinessRuntime::placement_candidates() const {
  std::vector<net::NodeId> candidates;
  const auto& spec = cluster().spec();
  for (std::uint32_t p = 0; p < spec.partitions; ++p) {
    for (net::NodeId n : cluster().compute_nodes(net::PartitionId{p})) {
      if (cluster().node(n).alive()) candidates.push_back(n);
    }
  }
  return candidates;
}

void BusinessRuntime::deploy(const TierSpec& tier) {
  auto candidates = placement_candidates();
  if (candidates.empty()) return;

  net::NodeId target;
  if (config_.placement == PlacementPolicy::kLeastLoaded && !node_cpu_.empty()) {
    // Lowest cached CPU wins; unknown nodes count as idle.
    double best = 1e18;
    target = candidates.front();
    for (net::NodeId n : candidates) {
      const auto it = node_cpu_.find(n.value);
      const double cpu = it == node_cpu_.end() ? 0.0 : it->second;
      if (cpu < best) {
        best = cpu;
        target = n;
      }
    }
  } else {
    target = candidates[next_placement_++ % candidates.size()];
  }

  auto spawn = std::make_shared<kernel::SpawnMsg>();
  spawn->spec.name = "biz." + tier.name;
  spawn->spec.owner = "business";
  spawn->spec.cpu_share = tier.cpu_share;
  spawn->spec.duration = 0;  // service processes run until killed
  spawn->reply_to = address();
  rpc_.call<kernel::SpawnReplyMsg>(
      std::move(spawn),
      {target, kernel::port_of(kernel::ServiceKind::kProcessManager)},
      [this, tier = tier.name](net::Result<const kernel::SpawnReplyMsg*> spawned) {
        if (!spawned || !spawned.value->ok) return;
        instances_[spawned.value->pid] =
            Instance{tier, spawned.value->node, true};
        ++stats_.deployed;
      },
      {.max_retries = 0}, "spawn");
}

void BusinessRuntime::refresh_load() {
  if (!alive()) return;
  auto query = std::make_shared<kernel::DbQueryMsg>();
  load_query_id_ = rpc_.mint_id();
  query->request_id = load_query_id_;
  query->table = kernel::BulletinTable::kNodes;
  query->cluster_scope = true;
  query->reply_to = address();
  send_any(kernel_.service_address(kernel::ServiceKind::kDataBulletin,
                                   cluster().partition_of(node_id())),
           std::move(query));
}

const TierSpec* BusinessRuntime::tier_spec(const std::string& name) const {
  for (const auto& t : config_.tiers) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

std::size_t BusinessRuntime::replicas_running(const std::string& tier) const {
  std::size_t n = 0;
  for (const auto& [pid, inst] : instances_) {
    if (inst.tier == tier && inst.running) ++n;
  }
  return n;
}

std::vector<net::NodeId> BusinessRuntime::replica_nodes(
    const std::string& tier) const {
  std::vector<net::NodeId> out;
  for (const auto& [pid, inst] : instances_) {
    if (inst.tier == tier && inst.running) out.push_back(inst.node);
  }
  return out;
}

bool BusinessRuntime::route_request() {
  // A request traverses every tier; it succeeds iff each has a live replica
  // on a live node.
  bool ok = !config_.tiers.empty();
  for (const auto& tier : config_.tiers) {
    bool tier_ok = false;
    for (const auto& [pid, inst] : instances_) {
      if (inst.tier == tier.name && inst.running &&
          cluster().node(inst.node).alive()) {
        tier_ok = true;
        break;
      }
    }
    if (!tier_ok) {
      ok = false;
      break;
    }
  }
  if (ok) {
    ++stats_.requests_served;
  } else {
    ++stats_.requests_failed;
  }
  return ok;
}

void BusinessRuntime::heal(cluster::Pid pid) {
  auto it = instances_.find(pid);
  if (it == instances_.end() || !it->second.running) return;
  it->second.running = false;
  const TierSpec* tier = tier_spec(it->second.tier);
  if (tier == nullptr) return;
  ++stats_.restarts;
  deploy(*tier);
}

void BusinessRuntime::handle(const net::Envelope& env) {
  const net::Message& m = *env.message;
  if (rpc_.deliver(env)) return;
  if (const auto* notify = net::message_cast<kernel::EsNotifyMsg>(m)) {
    const kernel::Event& e = notify->event;
    if (e.type == kernel::event_types::kAppExited) {
      try {
        heal(std::stoull(e.attr("pid")));
      } catch (const std::exception&) {
        // non-numeric pid attribute: not one of ours
      }
    } else if (e.type == kernel::event_types::kNodeFailed) {
      std::vector<cluster::Pid> victims;
      for (const auto& [pid, inst] : instances_) {
        if (inst.running && inst.node == e.subject_node) victims.push_back(pid);
      }
      for (const cluster::Pid pid : victims) heal(pid);
    }
    return;
  }
  if (const auto* reply = net::message_cast<kernel::DbQueryReplyMsg>(m)) {
    if (reply->request_id != load_query_id_) return;
    node_cpu_.clear();
    for (const auto& row : reply->node_rows) {
      node_cpu_[row.node.value] = row.usage.cpu_pct;
    }
    return;
  }
}

std::string BusinessRuntime::render_status() const {
  std::ostringstream out;
  out << "business runtime: ";
  for (const auto& tier : config_.tiers) {
    out << tier.name << " " << replicas_running(tier.name) << "/" << tier.replicas
        << "  ";
  }
  out << "| availability " << stats_.availability() << " (" << stats_.requests_served
      << " ok, " << stats_.requests_failed << " failed), " << stats_.restarts
      << " self-heals";
  return out.str();
}

}  // namespace phoenix::biz
