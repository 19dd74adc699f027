// Detector services (paper §4.2).
//
// One detector daemon per node hosting the four logical detectors:
//  - physical resource detector: samples CPU/memory/swap/disk/net gauges and
//    exports them to the partition's data bulletin (schedulers feed on this);
//  - application state detector: exports the process table and publishes
//    app.started / app.exited events (the business runtime and PWS feed on
//    this);
//  - node state and network state detection are realized on the GSD side by
//    analysing the watch daemon's per-network heartbeats (§4.3), so this
//    daemon carries no explicit logic for them.
//
// Exports are delta-based by default (FtParams::detector_delta_reports):
// the first sample after (re)start and every detector_resync_every-th
// sample ship a full DbReportMsg snapshot; samples in between ship a
// DbDeltaMsg carrying only moved gauges and app starts/exits, chained by a
// per-detector sequence number so the bulletin can detect a broken chain
// and wait for the next resync.
#pragma once

#include <memory>
#include <unordered_set>

#include "cluster/daemon.h"
#include "kernel/bulletin/data_bulletin.h"
#include "kernel/runtime/service_runtime.h"
#include "kernel/event/event.h"
#include "kernel/ft_params.h"
#include "kernel/service_kind.h"

namespace phoenix::kernel {

class DetectorDaemon final : public ServiceRuntime {
 public:
  DetectorDaemon(cluster::Cluster& cluster, net::NodeId node,
                 const FtParams& params, ServiceDirectory* directory,
                 double cpu_share = 0.0);

  /// Forces one sampling pass immediately (tests / benches).
  void sample_now() { sample(); }

  std::uint64_t samples_taken() const noexcept { return samples_; }

  /// Full snapshots vs deltas shipped so far (wire-accounting tests).
  std::uint64_t full_reports_sent() const noexcept { return full_reports_; }
  std::uint64_t delta_reports_sent() const noexcept { return delta_reports_; }

 private:
  void on_service_start() override;
  void on_service_stop() override;
  void sample();
  void publish(Event event);

  const FtParams& params_;
  sim::PeriodicTask sampler_;
  /// Pids the last sample reported as running apps: the base of both the
  /// bulletin deltas and the app.started / app.exited events.
  std::unordered_set<cluster::Pid> reported_apps_;
  cluster::ResourceUsage last_usage_;
  std::uint64_t report_seq_ = 0;
  unsigned samples_since_resync_ = 0;
  bool need_full_report_ = true;  // first sample / after restart
  std::uint64_t samples_ = 0;
  std::uint64_t full_reports_ = 0;
  std::uint64_t delta_reports_ = 0;

  // Cluster-wide monitoring-plane counters, registry-owned (shared by every
  // detector instance) and bumped only while the registry is enabled.
  obs::Counter* m_samples_;
  obs::Counter* m_full_reports_;
  obs::Counter* m_delta_reports_;
};

}  // namespace phoenix::kernel
