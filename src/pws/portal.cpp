#include "pws/portal.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "kernel/bulletin/data_bulletin.h"

namespace phoenix::pws {

namespace {
constexpr net::PortId kPortalPort{22};
}  // namespace

Portal::Portal(cluster::Cluster& cluster, net::NodeId node,
               kernel::PhoenixKernel& kernel, net::Address scheduler,
               sim::SimTime refresh_interval)
    : Daemon(cluster, "pws.portal", node, kPortalPort),
      kernel_(kernel),
      scheduler_(scheduler),
      refresher_(cluster.engine(), refresh_interval, [this] { refresh(); }) {}

void Portal::on_start() { refresher_.start_after(1 * sim::kSecond); }

void Portal::on_stop() { refresher_.stop(); }

void Portal::refresh() {
  if (!alive()) return;
  auto jobs_query = std::make_shared<PwsQueryMsg>();
  pending_jobs_query_ = next_request_id_++;
  jobs_query->request_id = pending_jobs_query_;
  jobs_query->reply_to = address();
  send_any(scheduler_, std::move(jobs_query));

  auto nodes_query = std::make_shared<kernel::DbQueryMsg>();
  pending_nodes_query_ = next_request_id_++;
  nodes_query->request_id = pending_nodes_query_;
  nodes_query->table = kernel::BulletinTable::kNodes;
  nodes_query->cluster_scope = true;
  nodes_query->reply_to = address();
  send_any(kernel_.service_address(kernel::ServiceKind::kDataBulletin,
                                   cluster().partition_of(node_id())),
           std::move(nodes_query));
}

void Portal::handle(const net::Envelope& env) {
  const net::Message& m = *env.message;
  if (const auto* reply = net::message_cast<PwsQueryReplyMsg>(m)) {
    if (reply->request_id != pending_jobs_query_) return;
    jobs_ = reply->jobs;
    std::sort(jobs_.begin(), jobs_.end(),
              [](const Job& a, const Job& b) { return a.id < b.id; });
    ++refreshes_;
    return;
  }
  if (const auto* reply = net::message_cast<kernel::DbQueryReplyMsg>(m)) {
    if (reply->request_id != pending_nodes_query_) return;
    nodes_ = reply->node_rows;
    return;
  }
}

bool Portal::shutdown_node(net::NodeId node) {
  if (node.value >= kernel_.cluster().node_count()) return false;
  if (!kernel_.cluster().node(node).alive()) return false;
  kernel_.cluster().crash_node(node);  // clean power-off: everything stops
  return true;
}

bool Portal::start_node(net::NodeId node) {
  if (node.value >= kernel_.cluster().node_count()) return false;
  if (kernel_.cluster().node(node).alive()) return false;
  kernel_.cluster().restore_node(node);
  kernel_.ppm(node).start();
  kernel_.detector(node).start();
  kernel_.watch_daemon(node).start();
  return true;
}

std::string Portal::render() const {
  std::ostringstream out;
  char line[192];

  out << "+================ Phoenix-PWS Integrated Portal ================+\n";
  out << "| Jobs:\n";
  std::snprintf(line, sizeof(line), "| %-5s %-10s %-8s %-10s %-5s %-10s %s\n",
                "id", "name", "user", "pool", "nodes", "state", "prio");
  out << line;
  std::size_t shown = 0;
  for (const auto& job : jobs_) {
    if (++shown > 20) {
      std::snprintf(line, sizeof(line), "|   ... %zu more\n", jobs_.size() - 20);
      out << line;
      break;
    }
    std::snprintf(line, sizeof(line), "| %-5llu %-10s %-8s %-10s %-5u %-10s %d\n",
                  static_cast<unsigned long long>(job.id), job.name.c_str(),
                  job.user.c_str(), job.pool.c_str(), job.nodes_needed,
                  std::string(to_string(job.state)).c_str(), job.priority);
    out << line;
  }

  out << "| Nodes ('#'=busy, '.'=idle, 'x'=down):\n| ";
  // Node grid from the bulletin rows, ordered by id; nodes absent from the
  // bulletin (crashed/stale) render as down.
  std::map<std::uint32_t, const kernel::NodeRecord*> by_id;
  for (const auto& row : nodes_) by_id[row.node.value] = &row;
  for (std::size_t n = 0; n < kernel_.cluster().node_count(); ++n) {
    const auto it = by_id.find(static_cast<std::uint32_t>(n));
    char c = 'x';
    if (it != by_id.end() && it->second->alive) {
      c = it->second->usage.cpu_pct > 50.0 ? '#' : '.';
    }
    out << c;
    if ((n + 1) % 32 == 0 && n + 1 < kernel_.cluster().node_count()) out << "\n| ";
  }
  out << "\n| Controls: start/shutdown nodes via Portal::start_node / shutdown_node\n";
  out << "+================================================================+\n";
  return out.str();
}

}  // namespace phoenix::pws
