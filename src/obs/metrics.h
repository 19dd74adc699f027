// Process-wide metrics registry: named counters, gauges, and log-bucketed
// latency histograms.
//
// One Registry per Cluster (not a true global — parallel trials in one
// process must not share counters). Same cost discipline as sim::Tracer:
// every hot-path instrumentation site is guarded by one branch on
// `enabled()` and records nothing when the registry is off, so the paper
// experiments stay byte-identical with observability compiled in.
//
// Metric objects are owned by the registry and keyed by name; lookup
// returns a stable pointer (node-based map), so instrumented components
// resolve their metrics once and then write through the cached pointer.
// Pull-based sources (fabric stats, engine counters) register a *probe*
// instead: a closure run at snapshot time that publishes gauges, keeping
// the data plane untouched between snapshots.
//
// Thread discipline: the registry is NOT thread-safe. Mutate it, and run
// its probes, only from the thread that runs the owning cluster's engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace phoenix::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time measurement (last write wins).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Log2-bucketed distribution, sized for latencies in simulated
/// microseconds: bucket i holds values whose bit width is i, i.e.
/// [2^(i-1), 2^i), with bucket 0 holding the value 0. 64 buckets cover the
/// full uint64 range; recording is a bit-width + one array increment.
/// Percentiles interpolate linearly inside the winning bucket — accurate
/// to the bucket's resolution (a factor of 2), which is plenty for p50/p95/
/// p99 trend lines; `max()` is exact.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width(v) in [0, 64]

  void record(std::uint64_t v) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Value at quantile q in [0, 1]; 0 when empty. q=0.5 -> p50, etc.
  double percentile(double q) const noexcept;

  void reset() noexcept;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Named metrics, owned here; plus snapshot-time probes for pull sources.
class Registry {
 public:
  /// Probes are run by snapshot_json() to publish gauges from pull
  /// sources. Returns an id for unregister_probe (sources whose lifetime
  /// is shorter than the registry's must unregister in their destructor).
  using Probe = std::function<void(Registry&)>;

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Find-or-create by name. Pointers stay valid for the registry's
  /// lifetime (std::map nodes are stable).
  Counter* counter(const std::string& name) { return &counters_[name]; }
  Gauge* gauge(const std::string& name) { return &gauges_[name]; }
  Histogram* histogram(const std::string& name) { return &histograms_[name]; }

  /// nullptr when the metric was never created (const lookup, no insert).
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  std::uint64_t register_probe(Probe probe);
  void unregister_probe(std::uint64_t id);
  std::size_t probe_count() const noexcept { return probes_.size(); }

  /// Runs every probe (publishing pull-source gauges), then renders all
  /// metrics as one deterministic JSON object:
  ///   { "counters": {..}, "gauges": {..},
  ///     "histograms": { name: {count,sum,max,mean,p50,p95,p99}, .. } }
  std::string snapshot_json();

  /// Zeroes counters and histograms (gauges are overwritten by the next
  /// probe run anyway). Registered probes and metric names survive.
  void reset_values();

 private:
  bool enabled_ = false;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::vector<std::pair<std::uint64_t, Probe>> probes_;
  std::uint64_t next_probe_key_ = 1;
};

}  // namespace phoenix::obs
