#include "kernel/kernel.h"

#include <stdexcept>
#include <utility>

namespace phoenix::kernel {

std::string_view to_string(ServiceKind kind) noexcept {
  switch (kind) {
    case ServiceKind::kWatchDaemon: return "wd";
    case ServiceKind::kGroupService: return "gsd";
    case ServiceKind::kEventService: return "es";
    case ServiceKind::kCheckpointService: return "ckpt";
    case ServiceKind::kDataBulletin: return "db";
    case ServiceKind::kProcessManager: return "ppm";
    case ServiceKind::kConfiguration: return "config";
    case ServiceKind::kSecurity: return "security";
    case ServiceKind::kDetector: return "detector";
  }
  return "?";
}

net::PortId port_of(ServiceKind kind) noexcept {
  using cluster::ports::kCheckpointService;
  switch (kind) {
    case ServiceKind::kWatchDaemon: return cluster::ports::kWatchDaemon;
    case ServiceKind::kGroupService: return cluster::ports::kGroupService;
    case ServiceKind::kEventService: return cluster::ports::kEventService;
    case ServiceKind::kCheckpointService: return cluster::ports::kCheckpointService;
    case ServiceKind::kDataBulletin: return cluster::ports::kDataBulletin;
    case ServiceKind::kProcessManager: return cluster::ports::kProcessManager;
    case ServiceKind::kConfiguration: return cluster::ports::kConfiguration;
    case ServiceKind::kSecurity: return cluster::ports::kSecurity;
    case ServiceKind::kDetector: return cluster::ports::kDetector;
  }
  return net::PortId{};
}

std::string_view to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kProcessFailure: return "process";
    case FaultKind::kNodeFailure: return "node";
    case FaultKind::kNetworkFailure: return "network";
  }
  return "?";
}

PhoenixKernel::PhoenixKernel(cluster::Cluster& cluster, FtParams params)
    : cluster_(cluster), params_(params) {}

PhoenixKernel::~PhoenixKernel() {
  if (metrics_probe_id_ != 0) cluster_.metrics().unregister_probe(metrics_probe_id_);
}

std::vector<SupervisedSpec> PhoenixKernel::default_supervised() const {
  return {
      SupervisedSpec{"CS", ServiceKind::kCheckpointService, "",
                     port_of(ServiceKind::kCheckpointService)},
      SupervisedSpec{"ES", ServiceKind::kEventService, "",
                     port_of(ServiceKind::kEventService)},
      SupervisedSpec{"DB", ServiceKind::kDataBulletin, "",
                     port_of(ServiceKind::kDataBulletin)},
  };
}

void PhoenixKernel::create_daemons() {
  if (created_) throw std::logic_error("PhoenixKernel daemons already created");
  created_ = true;

  const auto& spec = cluster_.spec();
  const std::size_t parts = spec.partitions;

  // Directory: every per-partition service starts on its server node;
  // configuration and security live on partition 0's server node.
  for (ServiceKind kind :
       {ServiceKind::kGroupService, ServiceKind::kEventService,
        ServiceKind::kCheckpointService, ServiceKind::kDataBulletin,
        ServiceKind::kConfiguration, ServiceKind::kSecurity}) {
    auto& table = service_nodes_[kind];
    table.resize(parts);
    for (std::size_t p = 0; p < parts; ++p) {
      const net::PartitionId pid{static_cast<std::uint32_t>(p)};
      table[p] = (kind == ServiceKind::kConfiguration ||
                  kind == ServiceKind::kSecurity)
                     ? cluster_.server_node(net::PartitionId{0})
                     : cluster_.server_node(pid);
    }
  }

  // Cluster-wide singletons.
  const net::NodeId head = cluster_.server_node(net::PartitionId{0});
  config_ = std::make_unique<ConfigurationService>(
      cluster_, head, kServerDaemonCpuShare, this, &params_);
  security_ = std::make_unique<SecurityService>(
      cluster_, head, kServerDaemonCpuShare, this, &params_);

  // Dynamic reconfiguration notifications: every successful set() becomes a
  // "config.changed" event through partition 0's event service.
  config_->set_change_hook([this](const std::string& key, const std::string& value,
                                  std::uint64_t version) {
    auto& es = *ess_[0];
    if (!es.alive()) return;
    Event e;
    e.type = std::string(event_types::kConfigChanged);
    e.partition = net::PartitionId{0};
    e.attrs = {{"key", key}, {"value", value}, {"version", std::to_string(version)}};
    es.publish_local(std::move(e));
  });

  // Per-node daemons.
  wds_.resize(cluster_.node_count());
  detectors_.resize(cluster_.node_count());
  ppms_.resize(cluster_.node_count());
  for (const auto& node : cluster_.nodes()) {
    const net::NodeId id = node.id();
    ppms_[id.value] = std::make_unique<ProcessManager>(cluster_, id, params_, this,
                                                       kPpmCpuShare);
    detectors_[id.value] = std::make_unique<DetectorDaemon>(
        cluster_, id, params_, this, kDetectorCpuShare);
    wds_[id.value] = std::make_unique<WatchDaemon>(cluster_, id, params_, this,
                                                   kWdCpuShare);
  }

  // Per-partition services on server nodes.
  gsds_.resize(parts);
  ess_.resize(parts);
  css_.resize(parts);
  dbs_.resize(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    const net::PartitionId pid{static_cast<std::uint32_t>(p)};
    const net::NodeId server = cluster_.server_node(pid);
    css_[p] = std::make_unique<CheckpointService>(cluster_, server, pid, params_,
                                                  this, kServerDaemonCpuShare);
    ess_[p] = std::make_unique<EventService>(cluster_, server, pid, params_, this,
                                             kServerDaemonCpuShare);
    dbs_[p] = std::make_unique<DataBulletin>(cluster_, server, pid, params_, this,
                                             kServerDaemonCpuShare);
    gsds_[p] = std::make_unique<GroupServiceDaemon>(
        cluster_, server, pid, params_, this, &log_, default_supervised(),
        kServerDaemonCpuShare);
  }

  if (params_.topology.mode == FtParams::GroupTopology::Mode::kZoned) {
    // Hierarchy health gauges, sampled at metrics collection time from the
    // current top leader's view (gsds_ entries are replaced on migration,
    // so the probe must re-resolve instances on every sample).
    metrics_probe_id_ =
        cluster_.metrics().register_probe([this](obs::Registry& r) {
          double top_size = 0;
          for (const auto& gsd : gsds_) {
            if (gsd != nullptr && gsd->alive() && gsd->is_top_leader()) {
              top_size = static_cast<double>(gsd->top_view().members.size());
              break;
            }
          }
          r.gauge("meta.top.ring_size")->set(top_size);
        });
  }
}

void PhoenixKernel::start_core_services() {
  config_->start();
  config_->introspect();
  security_->start();
}

void PhoenixKernel::start_node_daemons(net::NodeId node) {
  ppms_.at(node.value)->start();
  detectors_.at(node.value)->start();
  wds_.at(node.value)->start();
}

void PhoenixKernel::start_partition_services(net::PartitionId p, bool found_ring) {
  css_.at(p.value)->start();
  ess_.at(p.value)->start();
  dbs_.at(p.value)->start();
  auto& gsd = gsds_.at(p.value);
  if (params_.topology.mode == FtParams::GroupTopology::Mode::kZoned) {
    // Staged construction under a zoned topology: rings are per zone, so
    // the FIRST partition started in each zone founds its zone sub-ring
    // (the caller's cluster-wide found_ring flag doesn't know about zones).
    const ZoneTopology zones =
        ZoneTopology::from(params_.topology, partition_count());
    if (founded_zones_.insert(zones.zone_of(p)).second) gsd->request_bootstrap();
  } else if (found_ring) {
    gsd->request_bootstrap();
  }
  gsd->start();
}

void PhoenixKernel::boot() {
  if (booted_) throw std::logic_error("PhoenixKernel::boot called twice");
  booted_ = true;
  if (!created_) create_daemons();

  // Seed the membership layer, incarnation 0 (boot).
  const std::size_t parts = cluster_.spec().partitions;
  if (params_.topology.mode == FtParams::GroupTopology::Mode::kZoned) {
    // Zoned: each partition gets its ZONE's sub-ring view, and each zone's
    // boot-time leader (its first partition) gets the top-ring view of all
    // zone leaders — so both levels form without a join storm.
    const ZoneTopology zones = ZoneTopology::from(params_.topology, parts);
    for (std::uint32_t z = 0; z < zones.num_zones; ++z) {
      MetaView zone_view;
      zone_view.view_id = 1;
      for (net::PartitionId pid : zones.zone_members(z)) {
        zone_view.members.push_back(
            MetaMember{pid, gsds_[pid.value]->address(), /*incarnation=*/0});
      }
      for (net::PartitionId pid : zones.zone_members(z)) {
        gsds_[pid.value]->set_initial_view(zone_view);
      }
    }
    MetaView top;
    top.view_id = 1;
    for (std::uint32_t z = 0; z < zones.num_zones; ++z) {
      const net::PartitionId lead = zones.first_of(z);
      top.members.push_back(
          MetaMember{lead, gsds_[lead.value]->address(), /*incarnation=*/0});
    }
    for (std::uint32_t z = 0; z < zones.num_zones; ++z) {
      gsds_[zones.first_of(z).value]->seed_top_view(top);
    }
  } else {
    // Flat meta-group (paper §4.3): all partitions in order.
    MetaView initial;
    initial.view_id = 1;
    for (std::size_t p = 0; p < parts; ++p) {
      const net::PartitionId pid{static_cast<std::uint32_t>(p)};
      initial.members.push_back(
          MetaMember{pid, gsds_[p]->address(), /*incarnation=*/0});
    }
    for (auto& gsd : gsds_) gsd->set_initial_view(initial);
  }

  // Start everything. Dependencies are loose because all starts happen
  // before the engine delivers any message, but keep a sensible order:
  // PPM first (probe targets), checkpoint before its clients.
  start_core_services();
  for (auto& d : ppms_) d->start();
  for (auto& d : css_) d->start();
  for (auto& d : ess_) d->start();
  for (auto& d : dbs_) d->start();
  for (auto& d : detectors_) d->start();
  for (auto& d : wds_) d->start();
  for (auto& d : gsds_) d->start();
}

void PhoenixKernel::register_extension(const std::string& name,
                                       ExtensionFactory factory) {
  extension_factories_[name] = std::move(factory);
}

cluster::Daemon* PhoenixKernel::extension(const std::string& name) const {
  auto it = extension_instances_.find(name);
  return it == extension_instances_.end() ? nullptr : it->second.get();
}

net::NodeId PhoenixKernel::service_node(ServiceKind kind, net::PartitionId p) const {
  auto it = service_nodes_.find(kind);
  if (it == service_nodes_.end() || p.value >= it->second.size()) return net::NodeId{};
  return it->second[p.value];
}

void PhoenixKernel::set_service_node(ServiceKind kind, net::PartitionId p,
                                     net::NodeId node) {
  auto it = service_nodes_.find(kind);
  if (it == service_nodes_.end() || p.value >= it->second.size()) return;
  it->second[p.value] = node;
  if (config_ != nullptr && config_->running()) {
    config_->set("services/" + std::string(to_string(kind)) + "/" +
                     std::to_string(p.value) + "/node",
                 std::to_string(node.value));
  }
}

cluster::Daemon* PhoenixKernel::create_service(ServiceKind kind, net::PartitionId p,
                                               net::NodeId node) {
  if (p.value >= partition_count()) return nullptr;

  auto retire = [this](std::unique_ptr<cluster::Daemon> old) {
    if (old == nullptr) return;
    // The old instance keeps existing (its scheduled callbacks may still
    // fire, guarded by alive()), but frees its address for the successor.
    old->kill();
    old->unbind();
    graveyard_.push_back(std::move(old));
  };

  cluster::Daemon* created = nullptr;
  switch (kind) {
    case ServiceKind::kGroupService: {
      // The successor supervises what its predecessor did, extensions too.
      std::vector<SupervisedSpec> supervised = gsds_[p.value]->supervised();
      retire(std::move(gsds_[p.value]));
      auto fresh = std::make_unique<GroupServiceDaemon>(
          cluster_, node, p, params_, this, &log_, std::move(supervised),
          kServerDaemonCpuShare);
      created = fresh.get();
      gsds_[p.value] = std::move(fresh);
      break;
    }
    case ServiceKind::kEventService: {
      retire(std::move(ess_[p.value]));
      auto fresh = std::make_unique<EventService>(cluster_, node, p, params_, this,
                                                  kServerDaemonCpuShare);
      created = fresh.get();
      ess_[p.value] = std::move(fresh);
      break;
    }
    case ServiceKind::kCheckpointService: {
      retire(std::move(css_[p.value]));
      auto fresh = std::make_unique<CheckpointService>(
          cluster_, node, p, params_, this, kServerDaemonCpuShare);
      created = fresh.get();
      css_[p.value] = std::move(fresh);
      break;
    }
    case ServiceKind::kDataBulletin: {
      retire(std::move(dbs_[p.value]));
      auto fresh = std::make_unique<DataBulletin>(cluster_, node, p, params_, this,
                                                  kServerDaemonCpuShare);
      created = fresh.get();
      dbs_[p.value] = std::move(fresh);
      break;
    }
    default:
      return nullptr;  // per-node and singleton services do not migrate
  }
  // A service created through this path replaces a failed instance; let the
  // runtime account the takeover and fire the on_takeover() hook at start().
  static_cast<ServiceRuntime*>(created)->mark_takeover();
  set_service_node(kind, p, node);
  return created;
}

cluster::Daemon* PhoenixKernel::create_extension(const std::string& name,
                                                 net::NodeId node) {
  auto factory = extension_factories_.find(name);
  if (factory == extension_factories_.end()) return nullptr;
  auto old = extension_instances_.find(name);
  if (old != extension_instances_.end() && old->second != nullptr) {
    old->second->kill();
    old->second->unbind();
    graveyard_.push_back(std::move(old->second));
  }
  auto fresh = factory->second(node);
  cluster::Daemon* created = fresh.get();
  // Extensions built on the service runtime get the same failover accounting
  // as kernel services; plain daemons opt out by not inheriting it.
  if (old != extension_instances_.end()) {
    if (auto* rt = dynamic_cast<ServiceRuntime*>(created)) rt->mark_takeover();
  }
  extension_instances_[name] = std::move(fresh);
  return created;
}

std::vector<net::NodeId> PhoenixKernel::migration_targets(net::PartitionId p) const {
  std::vector<net::NodeId> out;
  for (net::NodeId n : cluster_.backup_nodes(p)) {
    if (cluster_.node(n).alive()) out.push_back(n);
  }
  // Degraded mode: with every backup down, a compute node can carry the
  // partition services.
  for (net::NodeId n : cluster_.compute_nodes(p)) {
    if (cluster_.node(n).alive()) out.push_back(n);
  }
  return out;
}

}  // namespace phoenix::kernel
