#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace phoenix::obs {

void Histogram::record(std::uint64_t v) noexcept {
  ++buckets_[std::bit_width(v)];
  ++count_;
  sum_ += v;
  if (v > max_) max_ = v;
}

double Histogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based), then walk the cumulative counts.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (cum + buckets_[i] >= rank) {
      if (i == 0) return 0.0;
      // Interpolate inside [2^(i-1), 2^i) by the rank's position among the
      // bucket's samples; clamp the top bucket's upper edge to max().
      const double lo = static_cast<double>(std::uint64_t{1} << (i - 1));
      double hi = i >= 64 ? static_cast<double>(max_)
                          : static_cast<double>(std::uint64_t{1} << i);
      hi = std::min(hi, static_cast<double>(max_) + 1.0);
      const double frac = static_cast<double>(rank - cum) /
                          static_cast<double>(buckets_[i]);
      return lo + (hi - lo) * frac;
    }
    cum += buckets_[i];
  }
  return static_cast<double>(max_);
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b = 0;
  count_ = sum_ = max_ = 0;
}

const Counter* Registry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::uint64_t Registry::register_probe(Probe probe) {
  const std::uint64_t id = next_probe_key_++;
  probes_.emplace_back(id, std::move(probe));
  return id;
}

void Registry::unregister_probe(std::uint64_t id) {
  std::erase_if(probes_, [id](const auto& p) { return p.first == id; });
}

namespace {

void append_json_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

void append_double(std::ostringstream& out, double v) {
  // Integral doubles render without a fraction; JSON has no NaN/Inf.
  if (!std::isfinite(v)) {
    out << 0;
  } else if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    out << static_cast<std::int64_t>(v);
  } else {
    out << v;
  }
}

}  // namespace

std::string Registry::snapshot_json() {
  // Probes may create/overwrite gauges; run them before rendering. Iterate
  // over a copy of the probe list so a probe registering a probe is safe.
  const auto probes = probes_;
  for (const auto& [id, probe] : probes) probe(*this);

  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    append_json_string(out, name);
    out << ": " << c.value();
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    append_json_string(out, name);
    out << ": ";
    append_double(out, g.value());
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    append_json_string(out, name);
    out << ": { \"count\": " << h.count() << ", \"sum\": " << h.sum()
        << ", \"max\": " << h.max() << ", \"mean\": ";
    append_double(out, h.mean());
    out << ", \"p50\": ";
    append_double(out, h.percentile(0.50));
    out << ", \"p95\": ";
    append_double(out, h.percentile(0.95));
    out << ", \"p99\": ";
    append_double(out, h.percentile(0.99));
    out << " }";
  }
  out << (first ? "" : "\n  ") << "}\n}";
  return out.str();
}

void Registry::reset_values() {
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

}  // namespace phoenix::obs
