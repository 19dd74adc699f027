// Measurement plumbing shared by the three workloads.
//
// Everything here observes the kernel from outside, through public APIs:
// the fabric's delivery handler and stats, the engine's event count, the
// daemons' own counters. Nothing in src/ is changed or switched on; the
// obs registry and span store stay off.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "kernel/fault_log.h"
#include "kernel/kernel.h"
#include "net/fabric.h"

namespace perfbench {

namespace sim = phoenix::sim;
namespace net = phoenix::net;
namespace cluster = phoenix::cluster;
namespace kernel = phoenix::kernel;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process start as seen by main(); setup_s is measured from here.
Clock::time_point process_start();

/// operator-new calls since process start (counting allocator in main.cpp).
std::uint64_t heap_allocs();

/// Output of one iteration of one workload.
struct Report {
  double setup_s = 0;
  double wall_s = 0;
  /// Counts and sim-clock values: identical for a seed on every run, traced
  /// or not.
  std::map<std::string, double> det;
  /// Values only the traced run can see that are still deterministic
  /// (deliveries by daemon kind and message family).
  std::map<std::string, double> traced;
  /// Host-clock per-layer values (traced run).
  std::map<std::string, double> host;
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// Open-loop request bookkeeping: every request is timed from its due time.
/// Requests are engine events scheduled at their due time, so dispatch can
/// never run late; `dispatched` counts late dispatches anyway.
struct RequestLog {
  std::vector<sim::SimTime> latency_us;  // completed successfully
  std::uint64_t issued = 0;
  std::uint64_t late = 0;       // dispatched after their due time
  std::uint64_t completed = 0;  // success or failure, exactly once each
  std::uint64_t failed = 0;

  void dispatched(sim::SimTime due, sim::SimTime now) {
    ++issued;
    if (now > due) ++late;
  }
};

/// Open-loop generator on the simulated clock: calls fn(due) at first,
/// first + period, ... for `count` requests, each an engine event scheduled
/// at its due time. Must outlive the run that fires it.
class OpenLoop {
 public:
  using Fn = std::function<void(sim::SimTime due)>;

  OpenLoop(sim::Engine& engine, sim::SimTime first, sim::SimTime period,
           std::uint64_t count, Fn fn)
      : engine_(engine), period_(period), left_(count), fn_(std::move(fn)) {
    if (left_ > 0) arm(first);
  }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

 private:
  void arm(sim::SimTime due) {
    engine_.schedule_at(due, [this, due] {
      fn_(due);
      if (--left_ > 0) arm(due + period_);
    });
  }

  sim::Engine& engine_;
  sim::SimTime period_;
  std::uint64_t left_;
  Fn fn_;
};

/// Percentile of sim-clock samples in ms. The clock ticks in whole
/// microseconds, so many samples tie; the quantile is interpolated inside
/// the 1 us tick that holds it, the way obs::Histogram interpolates inside
/// a bucket.
double percentile_ms(std::vector<sim::SimTime> samples, double q);

/// Times every envelope delivery from outside the kernel. install()
/// replaces the cluster's delivery handler with one that does exactly what
/// Cluster::deliver does — look up daemon_at, check alive(), call deliver —
/// and counts and times each call by receiving daemon kind (from its
/// well-known port) and message family (the type-name prefix).
class DeliveryTracer {
 public:
  static constexpr std::size_t kKinds = 14;
  static constexpr std::size_t kFamilies = 12;
  static const std::array<const char*, kKinds> kKindNames;
  static const std::array<const char*, kFamilies> kFamilyNames;

  DeliveryTracer();

  void install(cluster::Cluster& cluster);

  /// Total host seconds spent inside Daemon::deliver.
  double delivery_seconds() const;
  /// Deliveries of one message type (by name).
  std::uint64_t delivered_of_type(std::string_view type) const;
  void report(Report& r) const;

  static std::size_t family_of_name(std::string_view type);

 private:
  std::size_t kind_of(net::PortId port) const;
  std::size_t family_of(net::MessageTypeId id);

  std::array<std::uint64_t, kKinds> deliveries_{};
  std::array<std::int64_t, kKinds> ns_{};
  std::array<std::uint64_t, kFamilies> family_deliveries_{};
  std::vector<std::uint64_t> by_type_;   // [MessageTypeId]
  std::vector<std::int8_t> family_cache_;  // [MessageTypeId], -1 unknown
  std::uint64_t dead_letters_ = 0;
};

/// Brackets the measured phase. Construction ends set-up (setup_s is taken
/// here), snapshots engine, fabric, heap and kernel-service counters and
/// installs the tracer, if any; end() turns the deltas into the generic
/// sim/net/heap metrics plus runtime.*, db.*, detector.*, es.published,
/// ckpt.entries and group.regroup_rounds, summed over the current service
/// instances.
class Phase {
 public:
  Phase(cluster::Cluster& cluster, kernel::PhoenixKernel& kernel,
        DeliveryTracer* tracer, Report& report);
  /// `span` is the simulated length of the measured phase.
  void end(sim::SimTime span);

 private:
  cluster::Cluster& cluster_;
  kernel::PhoenixKernel& kernel_;
  DeliveryTracer* tracer_;
  Report& report_;
  std::map<std::string, double> kernel0_;
  net::NetworkStats net0_;
  std::uint64_t dead0_ = 0;
  std::uint64_t events0_ = 0;
  std::uint64_t allocs0_ = 0;
  Clock::time_point wall0_;
};

/// faults.* over the records detected at or after `since`; recover_s is
/// measured from `injected_at`. Returns the number of unrecovered records.
std::uint64_t fault_metrics(const kernel::FaultLog& log, sim::SimTime since,
                            sim::SimTime injected_at, Report& r);

/// Request latency metrics shared by every workload.
void request_metrics(const RequestLog& log, Report& r);

}  // namespace perfbench
