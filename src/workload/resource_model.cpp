#include "workload/resource_model.h"

#include <algorithm>
#include <array>
#include <string>

namespace phoenix::workload {

namespace {

// Cycling identities for churned synthetic apps. Small pools on purpose:
// real clusters run a handful of application binaries under a handful of
// accounts, which is exactly what makes symbol interning pay off.
constexpr std::array<std::string_view, 4> kChurnNames = {
    "hpl.xhpl", "wrf.exe", "blastp", "povray"};
constexpr std::array<std::string_view, 3> kChurnOwners = {"alice", "bob",
                                                          "carol"};

}  // namespace

ResourceModel::ResourceModel(cluster::Cluster& cluster, ResourceModelParams params)
    : cluster_(cluster),
      params_(params),
      updater_(cluster.engine(), params.update_interval, [this] { update_once(); }) {}

void ResourceModel::start() { updater_.start_after(1 * sim::kMillisecond); }

void ResourceModel::stop() { updater_.stop(); }

void ResourceModel::update_once() {
  for (auto& node : cluster_.nodes()) {
    if (!node.alive()) continue;
    update_node(node);
    if (params_.churn_apps_per_node > 0 &&
        node.role() == cluster::NodeRole::kCompute) {
      churn_node(node);
    }
  }
}

void ResourceModel::update_node(cluster::Node& node) {
  auto& rng = cluster_.engine().rng();
  auto& u = node.resources();

  auto walk = [&](double current, double base, double noise) {
    const double reverted = current + params_.reversion * (base - current);
    return reverted + rng.uniform(-noise, noise);
  };

  // CPU: baseline walk plus what the process table actually consumes.
  const double proc_pct =
      100.0 * node.daemon_cpu_load() / static_cast<double>(std::max(1u, node.cpus()));
  // Approximate the baseline by removing the current process contribution
  // (it changes slowly relative to the update interval).
  const double cpu_base =
      walk(std::max(0.0, u.cpu_pct - proc_pct), params_.base_cpu_pct,
           params_.cpu_noise);
  u.cpu_pct = std::clamp(cpu_base + proc_pct, 0.0, 100.0);
  u.mem_pct = std::clamp(walk(u.mem_pct, params_.base_mem_pct, params_.mem_noise),
                         0.0, 100.0);
  u.swap_pct = std::clamp(
      walk(u.swap_pct, params_.base_swap_pct, params_.swap_noise), 0.0, 100.0);
  u.disk_io_mbps = std::max(
      0.0, walk(u.disk_io_mbps, params_.base_disk_mbps, params_.base_disk_mbps / 3));
  u.net_io_mbps = std::max(
      0.0, walk(u.net_io_mbps, params_.base_net_mbps, params_.base_net_mbps / 3));
}

void ResourceModel::churn_node(cluster::Node& node) {
  auto& rng = cluster_.engine().rng();
  const sim::SimTime now = cluster_.engine().now();

  // Exit a random subset of the running synthetic apps.
  std::size_t running = 0;
  std::vector<cluster::Pid> to_exit;
  for (const auto& [pid, p] : node.process_table()) {
    if (p.owner == "kernel" || p.state != cluster::ProcessState::kRunning) continue;
    ++running;
    if (rng.uniform(0.0, 1.0) < params_.churn_exit_probability) {
      to_exit.push_back(pid);
    }
  }
  for (const cluster::Pid pid : to_exit) {
    node.terminate_process(pid, cluster::ProcessState::kExited, now, 0);
    ++apps_exited_;
  }
  // Churned exits leave the table before any detector sample sees them, so
  // the bulletin's next delta lists them as exited but no app.exited event
  // is published. The monitoring workloads' event and message counts rely
  // on that; the detector's own reap would announce every one of them.
  node.reap();
  running -= to_exit.size();

  // Start replacements up to the target population.
  while (running < params_.churn_apps_per_node) {
    cluster::ProcessInfo p;
    p.pid = cluster_.next_pid();
    p.name = std::string(kChurnNames[p.pid % kChurnNames.size()]);
    p.owner = std::string(kChurnOwners[p.pid % kChurnOwners.size()]);
    p.state = cluster::ProcessState::kRunning;
    p.cpu_share = 0.0;  // churned apps exercise reporting, not the CPU model
    p.started_at = now;
    node.add_process(std::move(p));
    ++apps_started_;
    ++running;
  }
}

}  // namespace phoenix::workload
