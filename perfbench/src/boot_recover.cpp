// boot_recover: cold boot of a 1,024-partition flat ring, then a mixed,
// correlated fault storm while a client keeps querying its home bulletin.
//
// Measured phase: boot() + 6 s settle, then the storm and a fixed
// observation span. The boot is where the checkpoint-federation fetch storm
// lives; the storm drives every Table 1-3 repair path at once.
#include <optional>
#include <vector>

#include "faults/fault_injector.h"
#include "faults/scenario.h"
#include "kernel/group/leader_monitor.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kPartitions = 1024;
constexpr std::uint32_t kRackStart = kPartitions / 2;  // first crashed partition
constexpr std::uint32_t kRack = 8;
constexpr sim::SimTime kSettle = 6 * sim::kSecond;
constexpr sim::SimTime kObserve = 65 * sim::kSecond;
constexpr sim::SimTime kQueryPeriod = 50 * sim::kMillisecond;  // 20 queries/s
constexpr std::uint32_t kQueries = 1200;                       // the first 60 s
constexpr sim::SimTime kNicOutage = 10 * sim::kSecond;

}  // namespace

Report run_boot_recover(const Options& opt) {
  Report r;
  cluster::ClusterSpec spec;
  spec.partitions = kPartitions;
  spec.computes_per_partition = 0;
  spec.backups_per_partition = 1;
  spec.networks = 3;
  spec.seed = opt.seed;
  kernel::FtParams params;  // flat() topology, paper() failover
  params.heartbeat_interval = 2 * sim::kSecond;
  params.detector_sample_interval = 1 * sim::kSecond;

  cluster::Cluster c(spec);
  kernel::PhoenixKernel k(c, params);
  phoenix::faults::FaultInjector injector(c);
  // The client lives on the backup node of the first crashed partition, so
  // its home bulletin dies with the rack and comes back on this very node.
  kernel::KernelApi api(c, c.backup_nodes(net::PartitionId{kRackStart})[0], k);
  k.create_daemons();  // daemon objects only: boot() starts them, measured
  RequestLog log;
  std::optional<DeliveryTracer> tracer;
  if (opt.traced) tracer.emplace();
  if (stop_after_setup(opt, r)) return r;

  Phase phase(c, k, tracer ? &*tracer : nullptr, r);
  const sim::SimTime t0 = c.now();
  const auto boot_wall0 = Clock::now();
  const net::NetworkStats before_boot = c.fabric().total_stats();
  k.boot();
  kernel::LeaderInvariantMonitor leaders(k, 100 * sim::kMillisecond);
  c.engine().run_for(kSettle);
  const net::NetworkStats after_boot = c.fabric().total_stats();
  const auto storm_wall0 = Clock::now();
  r.host["boot.wall_s"] = seconds_between(boot_wall0, storm_wall0);
  const double boot_bytes =
      static_cast<double>(after_boot.bytes_sent - before_boot.bytes_sent);
  r.det["boot.msgs"] =
      static_cast<double>(after_boot.messages_sent - before_boot.messages_sent);
  r.det["boot.bytes"] = boot_bytes;
  const auto type_bytes = [&](const char* type) {
    return static_cast<double>(after_boot.bytes_by_type.get(type) -
                               before_boot.bytes_by_type.get(type));
  };
  r.det["boot.fetch_share"] =
      (type_bytes("ckpt.fetch") + type_bytes("ckpt.load_reply")) / boot_bytes;

  // The storm: 26 injections at one instant, NIC restores 10 s later.
  const sim::SimTime storm_at = c.now();
  phoenix::faults::Scenario storm;
  std::vector<net::NodeId> rack;
  for (std::uint32_t p = kRackStart; p < kRackStart + kRack; ++p) {
    rack.push_back(c.server_node(net::PartitionId{p}));
  }
  storm.crash_rack(rack);
  std::vector<net::NodeId> wd_victims, nic_victims;
  for (std::uint32_t i = 0; i < 8; ++i) {
    wd_victims.push_back(c.backup_nodes(net::PartitionId{128 * i + 16})[0]);
    nic_victims.push_back(c.backup_nodes(net::PartitionId{128 * i + 48})[0]);
  }
  for (net::NodeId n : wd_victims) storm.kill_daemon(k.watch_daemon(n));
  const auto nic = [](std::uint32_t i) {
    return net::NetworkId{static_cast<std::uint8_t>(i % 3)};
  };
  for (std::uint32_t i = 0; i < 8; ++i) storm.cut_interface(nic_victims[i], nic(i));
  storm.kill_daemon(k.event_service(net::PartitionId{300}));
  storm.kill_daemon(k.bulletin(net::PartitionId{700}));
  constexpr std::uint64_t kInjected = kRack + 8 + 8 + 2;
  storm.at(kNicOutage);
  for (std::uint32_t i = 0; i < 8; ++i) storm.restore_interface(nic_victims[i], nic(i));
  storm.apply(injector, storm_at);

  // Open-loop partition-scope node queries at 20/s from storm start.
  OpenLoop queries(c.engine(), storm_at, kQueryPeriod, kQueries, [&](sim::SimTime due) {
    log.dispatched(due, c.now());
    api.query(kernel::BulletinTable::kNodes, /*cluster_scope=*/false, {},
              [&, due](kernel::KernelApi::Result<kernel::BulletinSnapshot> res) {
                ++log.completed;
                if (res.ok()) {
                  log.latency_us.push_back(c.now() - due);
                } else {
                  ++log.failed;
                }
              });
  });
  const auto net_storm = c.fabric().total_stats();
  c.engine().run_for(kObserve);
  r.host["storm.wall_s"] = seconds_between(storm_wall0, Clock::now());
  phase.end(c.now() - t0);

  r.det["ckpt.save_bytes_post_fault"] = static_cast<double>(
      c.fabric().total_stats().bytes_by_type.get("ckpt.save") -
      net_storm.bytes_by_type.get("ckpt.save"));
  const std::uint64_t unrecovered = fault_metrics(k.fault_log(), storm_at, storm_at, r);
  request_metrics(log, r);
  api_metrics({&api}, log.issued, r);
  r.det["leader.violations"] = static_cast<double>(leaders.violations());
  r.check(leaders.violations() == 0, "same-epoch double leader on the meta ring");

  r.attempted = log.issued + kInjected;
  r.failed = log.failed + std::min(unrecovered, kInjected);
  return r;
}

}  // namespace perfbench
