#include "kernel/detector/detectors.h"

#include <utility>

#include "kernel/event/event_service.h"

namespace phoenix::kernel {

namespace {

constexpr std::string_view kKernelOwner = "kernel";

AppRecord app_record_of(net::NodeId node, const cluster::ProcessInfo& p) {
  return AppRecord{
      .node = node,
      .pid = p.pid,
      .name_id = net::intern_symbol(p.name),
      .owner_id = net::intern_symbol(p.owner),
      .state = p.state,
      .cpu_share = p.cpu_share,
      .started_at = p.started_at,
  };
}

}  // namespace

DetectorDaemon::DetectorDaemon(cluster::Cluster& cluster, net::NodeId node,
                               const FtParams& params, ServiceDirectory* directory,
                               double cpu_share)
    : ServiceRuntime(cluster, "detector", node, port_of(ServiceKind::kDetector),
                     directory, &params,
                     Options{.kind = ServiceKind::kDetector,
                             .partition = cluster.partition_of(node)},
                     cpu_share),
      params_(params),
      sampler_(cluster.engine(), params.detector_sample_interval, [this] { sample(); }),
      m_samples_(cluster.metrics().counter("detector.samples")),
      m_full_reports_(cluster.metrics().counter("detector.full_reports")),
      m_delta_reports_(cluster.metrics().counter("detector.delta_reports")) {}

void DetectorDaemon::on_service_start() {
  sampler_.set_period(params_.detector_sample_interval);
  // A (re)started detector cannot know what the bulletin still holds for
  // this node; the next sample ships a full snapshot to re-anchor the
  // delta chain. reported_apps_ survives restarts, so already-running apps
  // are not re-announced, and entries that ended while the detector was
  // down were never reaped, so their exits are still announced.
  need_full_report_ = true;
  // Stagger the first sample so a thousand detectors do not fire in the
  // same microsecond (self-synchronization would be unrealistic).
  sampler_.start_after(engine().rng().uniform_int(1, params_.detector_sample_interval));
}

void DetectorDaemon::on_service_stop() { sampler_.stop(); }

void DetectorDaemon::publish(Event event) {
  if (directory() == nullptr) return;
  auto pub = std::make_shared<EsPublishMsg>();
  pub->event = std::move(event);
  const auto partition = cluster().partition_of(node_id());
  send_any(directory()->service_address(ServiceKind::kEventService, partition),
           std::move(pub));
}

void DetectorDaemon::sample() {
  if (!alive()) return;
  ++samples_;
  if (cluster().metrics().enabled()) m_samples_->inc();
  auto& node = cluster().node(node_id());
  const auto partition = cluster().partition_of(node_id());
  const sim::SimTime now_t = now();

  const bool full =
      !params_.detector_delta_reports || need_full_report_ ||
      (params_.detector_resync_every > 0 &&
       samples_since_resync_ + 1 >= params_.detector_resync_every);

  // App transitions are judged against reported_apps_, the running apps of
  // the last sample: a running app not in it has started, a terminal one in
  // it has exited. Kernel daemons raise no events.
  std::vector<AppRecord> snapshot_apps;  // full reports only
  std::vector<AppRecord> started;        // deltas only
  std::unordered_set<cluster::Pid> running_apps;
  for (const auto& [pid, p] : node.process_table()) {
    if (p.owner == kKernelOwner) continue;
    const bool reported = reported_apps_.contains(pid);
    if (p.state == cluster::ProcessState::kRunning) {
      running_apps.insert(pid);
      if (full) {
        snapshot_apps.push_back(app_record_of(node_id(), p));
      } else if (!reported) {
        started.push_back(app_record_of(node_id(), p));
      }
      if (!reported) {
        Event e;
        e.type = std::string(event_types::kAppStarted);
        e.subject_node = node_id();
        e.partition = partition;
        e.attrs = {{attr_keys::pid(), std::to_string(pid)},
                   {attr_keys::name(), p.name},
                   {attr_keys::owner(), p.owner}};
        publish(std::move(e));
      }
    } else if (reported) {
      Event e;
      e.type = std::string(event_types::kAppExited);
      e.subject_node = node_id();
      e.partition = partition;
      e.attrs = {{attr_keys::pid(), std::to_string(pid)},
                 {attr_keys::name(), p.name},
                 {attr_keys::owner(), p.owner},
                 {attr_keys::state(), std::string(cluster::to_string(p.state))},
                 {attr_keys::exit_code(), std::to_string(p.exit_code)}};
      publish(std::move(e));
    }
  }
  // This walk was the last reader of every terminal entry: drop them, so the
  // table holds the live processes plus at most one period of exits.
  node.reap();

  if (directory() == nullptr) {
    reported_apps_ = std::move(running_apps);
    last_usage_ = node.resources();
    return;
  }
  const auto bulletin =
      directory()->service_address(ServiceKind::kDataBulletin, partition);

  if (full) {
    NodeRecord record;
    record.node = node_id();
    record.partition = partition;
    record.usage = node.resources();
    record.alive = true;
    record.updated_at = now_t;

    auto report = std::make_shared<DbReportMsg>();
    report->node_record = record;
    report->apps = std::move(snapshot_apps);
    report->seq = ++report_seq_;
    send_any(bulletin, std::move(report));
    ++full_reports_;
    if (cluster().metrics().enabled()) m_full_reports_->inc();
    need_full_report_ = false;
    samples_since_resync_ = 0;
  } else {
    auto delta = std::make_shared<DbDeltaMsg>();
    delta->node = node_id();
    delta->partition = partition;
    delta->prev_seq = report_seq_;
    delta->seq = ++report_seq_;
    delta->sampled_at = now_t;
    if (node.resources() != last_usage_) {
      delta->has_usage = true;
      delta->usage = node.resources();
    }
    for (const cluster::Pid pid : reported_apps_) {
      if (!running_apps.contains(pid)) delta->exited.push_back(pid);
    }
    delta->started = std::move(started);
    send_any(bulletin, std::move(delta));
    ++delta_reports_;
    if (cluster().metrics().enabled()) m_delta_reports_->inc();
    ++samples_since_resync_;
  }
  reported_apps_ = std::move(running_apps);
  last_usage_ = node.resources();
}

}  // namespace phoenix::kernel
