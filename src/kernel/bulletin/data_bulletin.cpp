#include "kernel/bulletin/data_bulletin.h"

#include <algorithm>
#include <utility>

#include "kernel/service_msgs.h"

namespace phoenix::kernel {

UsageSummary summarize(const std::vector<NodeRecord>& nodes,
                       const std::vector<AppRecord>& apps) {
  UsageSummary s;
  s.node_count = nodes.size();
  s.app_count = apps.size();
  for (const auto& n : nodes) {
    if (n.alive) ++s.alive_count;
    s.avg_cpu_pct += n.usage.cpu_pct;
    s.avg_mem_pct += n.usage.mem_pct;
    s.avg_swap_pct += n.usage.swap_pct;
  }
  if (!nodes.empty()) {
    const double count = static_cast<double>(nodes.size());
    s.avg_cpu_pct /= count;
    s.avg_mem_pct /= count;
    s.avg_swap_pct /= count;
  }
  return s;
}

void merge_summary(UsageSummary& into, const UsageSummary& from) {
  const double total =
      static_cast<double>(into.node_count) + static_cast<double>(from.node_count);
  if (total > 0) {
    const double wi = static_cast<double>(into.node_count) / total;
    const double wf = static_cast<double>(from.node_count) / total;
    into.avg_cpu_pct = wi * into.avg_cpu_pct + wf * from.avg_cpu_pct;
    into.avg_mem_pct = wi * into.avg_mem_pct + wf * from.avg_mem_pct;
    into.avg_swap_pct = wi * into.avg_swap_pct + wf * from.avg_swap_pct;
  }
  into.node_count += from.node_count;
  into.alive_count += from.alive_count;
  into.app_count += from.app_count;
}

namespace {

/// Folds one peer's answer into the access point's reply.
void merge_reply(DbQueryReplyMsg& into, const DbQueryReplyMsg& pr,
                 const net::Envelope& env) {
  if (into.aggregated && pr.aggregated) {
    merge_summary(into.summary, pr.summary);
  } else if (env.message.use_count() == 1) {
    // Sole owner of the delivered reply (the fabric's in-flight reference
    // dies when this handler returns): steal the row vectors instead of
    // copying every row a second time on the access-point merge.
    auto& mut = const_cast<DbQueryReplyMsg&>(pr);
    if (into.node_rows.empty()) {
      into.node_rows = std::move(mut.node_rows);
    } else {
      into.node_rows.insert(into.node_rows.end(),
                            std::move_iterator(mut.node_rows.begin()),
                            std::move_iterator(mut.node_rows.end()));
    }
    if (into.app_rows.empty()) {
      into.app_rows = std::move(mut.app_rows);
    } else {
      into.app_rows.insert(into.app_rows.end(),
                           std::move_iterator(mut.app_rows.begin()),
                           std::move_iterator(mut.app_rows.end()));
    }
  } else {
    into.node_rows.insert(into.node_rows.end(), pr.node_rows.begin(),
                          pr.node_rows.end());
    into.app_rows.insert(into.app_rows.end(), pr.app_rows.begin(),
                         pr.app_rows.end());
  }
  into.partitions_included += pr.partitions_included;
}

}  // namespace

DataBulletin::DataBulletin(cluster::Cluster& cluster, net::NodeId node,
                           net::PartitionId partition, const FtParams& params,
                           ServiceDirectory* directory, double cpu_share)
    : ServiceRuntime(cluster, "db/" + std::to_string(partition.value), node,
                     port_of(ServiceKind::kDataBulletin), directory, &params,
                     // Bulletin state is soft (detectors repopulate it within
                     // one sampling period): announce readiness immediately,
                     // no recover_on_start.
                     Options{.kind = ServiceKind::kDataBulletin,
                             .partition = partition,
                             .announce_up = true},
                     cpu_share),
      partition_(partition),
      params_(params),
      staleness_horizon_(6 * params.detector_sample_interval),
      sweeper_(cluster.engine(), params.detector_sample_interval,
               [this] { sweep_stale(); }) {
  on<DbDeltaMsg>([this](const DbDeltaMsg& delta) { apply_delta(delta); });
  on<DbReportMsg>([this](const DbReportMsg& report, const net::Envelope& env) {
    if (env.message.use_count() == 1) {
      // Sole owner of the delivered snapshot: adopt its app rows directly.
      auto* mut = const_cast<DbReportMsg*>(&report);
      report_local(report.node_record, std::move(mut->apps), report.seq);
    } else {
      report_local(report.node_record, report.apps, report.seq);
    }
  });
  on<DbQueryMsg>([this](const DbQueryMsg& query) { handle_query(query); });
  on<DbPartitionQueryMsg>([this](const DbPartitionQueryMsg& pq) {
    auto reply = std::make_shared<DbQueryReplyMsg>();
    reply->request_id = pq.request_id;
    reply->aggregated = pq.aggregate_only;
    collect(pq.filter, pq.table, pq.aggregate_only, reply->node_rows,
            reply->app_rows, reply->summary);
    send_any(pq.reply_to, std::move(reply));
  });
}

void DataBulletin::set_staleness_horizon(sim::SimTime t) {
  staleness_horizon_ = t;
}

void DataBulletin::on_service_start() {
  in_flight_.clear();  // the restart dropped their gathers
  if (staleness_horizon_ > 0) {
    sweeper_.set_period(params_.detector_sample_interval);
    sweeper_.start_after(staleness_horizon_);
  }
}

void DataBulletin::on_service_stop() { sweeper_.stop(); }

void DataBulletin::sweep_stale() {
  if (staleness_horizon_ == 0 || !alive()) return;
  const sim::SimTime now_t = now();
  for (std::size_t i = 0; i < slots_.size();) {
    NodeSlot& slot = slots_[i];
    const sim::SimTime age = now_t - slot.rec.updated_at;
    if (age > 2 * staleness_horizon_) {
      app_row_count_ -= slot.apps.size();
      index_.erase(slot.rec.node.value);
      if (i != slots_.size() - 1) {
        slot = std::move(slots_.back());
        index_[slot.rec.node.value] = static_cast<std::uint32_t>(i);
      }
      slots_.pop_back();
      continue;  // the swapped-in slot still needs its age check
    }
    if (age > staleness_horizon_) slot.rec.alive = false;
    ++i;
  }
}

DataBulletin::NodeSlot* DataBulletin::find_slot(net::NodeId node) {
  const auto it = index_.find(node.value);
  return it == index_.end() ? nullptr : &slots_[it->second];
}

void DataBulletin::report_local(const NodeRecord& record,
                                std::vector<AppRecord> apps,
                                std::uint64_t seq) {
  if (NodeSlot* slot = find_slot(record.node)) {
    app_row_count_ += apps.size();
    app_row_count_ -= slot->apps.size();
    slot->rec = record;
    slot->apps = std::move(apps);
    slot->seq = seq;
    return;
  }
  index_.emplace(record.node.value, static_cast<std::uint32_t>(slots_.size()));
  app_row_count_ += apps.size();
  slots_.push_back(NodeSlot{record, std::move(apps), seq});
}

bool DataBulletin::apply_delta(const DbDeltaMsg& delta) {
  NodeSlot* slot = find_slot(delta.node);
  if (slot == nullptr || slot->seq != delta.prev_seq) {
    ++deltas_dropped_;  // broken chain; the next full snapshot repairs it
    return false;
  }
  slot->seq = delta.seq;
  if (delta.has_usage) slot->rec.usage = delta.usage;
  slot->rec.alive = true;
  slot->rec.updated_at = delta.sampled_at;
  if (!delta.exited.empty()) {
    const auto dead = [&](const AppRecord& a) {
      return std::find(delta.exited.begin(), delta.exited.end(), a.pid) !=
             delta.exited.end();
    };
    app_row_count_ -= std::erase_if(slot->apps, dead);
  }
  slot->apps.insert(slot->apps.end(), delta.started.begin(), delta.started.end());
  app_row_count_ += delta.started.size();
  return true;
}

std::vector<NodeRecord> DataBulletin::node_rows() const {
  std::vector<NodeRecord> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) out.push_back(slot.rec);
  return out;
}

std::vector<AppRecord> DataBulletin::app_rows() const {
  std::vector<AppRecord> out;
  out.reserve(app_row_count_);
  for (const auto& slot : slots_) {
    out.insert(out.end(), slot.apps.begin(), slot.apps.end());
  }
  return out;
}

std::vector<NodeRecord> DataBulletin::node_rows(const BulletinFilter& filter) const {
  std::vector<NodeRecord> out;
  for (const auto& slot : slots_) {
    if (filter.matches(slot.rec)) out.push_back(slot.rec);
  }
  return out;
}

std::vector<AppRecord> DataBulletin::app_rows(const BulletinFilter& filter) const {
  std::vector<AppRecord> out;
  for (const auto& slot : slots_) {
    for (const auto& app : slot.apps) {
      if (filter.matches(app, partition_)) out.push_back(app);
    }
  }
  return out;
}

void DataBulletin::collect(const BulletinFilter& filter, BulletinTable table,
                           bool aggregate_only,
                           std::vector<NodeRecord>& nodes_out,
                           std::vector<AppRecord>& apps_out,
                           UsageSummary& summary) const {
  if (aggregate_only) {
    // Aggregation pushdown summarizes both tables regardless of `table`
    // (a summary is constant-size either way).
    for (const auto& slot : slots_) {
      if (filter.matches(slot.rec)) {
        ++summary.node_count;
        if (slot.rec.alive) ++summary.alive_count;
        summary.avg_cpu_pct += slot.rec.usage.cpu_pct;
        summary.avg_mem_pct += slot.rec.usage.mem_pct;
        summary.avg_swap_pct += slot.rec.usage.swap_pct;
      }
      for (const auto& app : slot.apps) {
        if (filter.matches(app, partition_)) ++summary.app_count;
      }
    }
    if (summary.node_count > 0) {
      const double count = static_cast<double>(summary.node_count);
      summary.avg_cpu_pct /= count;
      summary.avg_mem_pct /= count;
      summary.avg_swap_pct /= count;
    }
    return;
  }
  const bool want_nodes = table != BulletinTable::kApps;
  const bool want_apps = table != BulletinTable::kNodes;
  for (const auto& slot : slots_) {
    if (want_nodes && filter.matches(slot.rec)) nodes_out.push_back(slot.rec);
    if (want_apps) {
      for (const auto& app : slot.apps) {
        if (filter.matches(app, partition_)) apps_out.push_back(app);
      }
    }
  }
}

void DataBulletin::handle_query(const DbQueryMsg& q) {
  // A retransmission of a query whose fan-out is still pending is dropped:
  // the original's merged reply serves the retry as well. (No replay cache
  // here — queries are reads, and a fresh execution is always valid.)
  const std::pair asker{q.reply_to, q.request_id};
  if (std::find(in_flight_.begin(), in_flight_.end(), asker) != in_flight_.end()) {
    ++duplicate_queries_;
    return;
  }
  auto reply = std::make_shared<DbQueryReplyMsg>();
  reply->request_id = q.request_id;
  reply->aggregated = q.aggregate_only;
  collect(q.filter, q.table, q.aggregate_only, reply->node_rows, reply->app_rows,
          reply->summary);

  std::vector<std::pair<net::Address, std::shared_ptr<DbPartitionQueryMsg>>> peers;
  if (q.cluster_scope && directory() != nullptr) {
    auto sub = std::make_shared<DbPartitionQueryMsg>();
    sub->table = q.table;
    sub->aggregate_only = q.aggregate_only;
    sub->filter = q.filter;
    sub->reply_to = address();
    for (std::size_t p = 0; p < directory()->partition_count(); ++p) {
      const net::PartitionId pid{static_cast<std::uint32_t>(p)};
      if (pid == partition_) continue;
      peers.emplace_back(directory()->service_address(ServiceKind::kDataBulletin, pid),
                         sub);
    }
  }
  in_flight_.push_back(asker);
  // Answer with whatever arrived by the deadline; dead peers just reduce
  // partitions_included.
  rpc().gather<DbQueryReplyMsg>(
      peers, query_timeout_,
      [reply](const DbQueryReplyMsg& pr, const net::Envelope& env) {
        merge_reply(*reply, pr, env);
        return false;
      },
      [this, reply, asker] {
        std::erase(in_flight_, asker);
        if (asker.first.valid() && alive()) send_any(asker.first, reply);
      });
}

}  // namespace phoenix::kernel
